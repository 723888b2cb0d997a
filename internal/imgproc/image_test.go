package imgproc

import (
	"bytes"
	"strings"
	"testing"
)

func TestNewImageZeroed(t *testing.T) {
	m := NewImage(4, 3)
	if m.W != 4 || m.H != 3 || len(m.Pix) != 12 {
		t.Fatalf("bad geometry: %+v", m)
	}
	for i, p := range m.Pix {
		if p != 0 {
			t.Fatalf("pixel %d not zero", i)
		}
	}
}

func TestNewImagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewImage(0, 1) did not panic")
		}
	}()
	NewImage(0, 1)
}

func TestAtSetClamping(t *testing.T) {
	m := NewImage(3, 3)
	m.Set(1, 1, 99)
	if m.At(1, 1) != 99 {
		t.Fatal("Set/At round trip failed")
	}
	// Edge clamp reads.
	m.Set(0, 0, 7)
	if m.At(-5, -5) != 7 {
		t.Fatal("negative read did not clamp to (0,0)")
	}
	m.Set(2, 2, 8)
	if m.At(10, 10) != 8 {
		t.Fatal("overflow read did not clamp to (2,2)")
	}
	// Out-of-bounds writes are dropped silently.
	m.Set(-1, 0, 200)
	m.Set(3, 0, 200)
	if m.At(0, 0) != 7 {
		t.Fatal("out-of-bounds write leaked")
	}
}

func TestFillMeanClone(t *testing.T) {
	m := NewImage(5, 5)
	m.Fill(100)
	if m.Mean() != 100 {
		t.Fatalf("mean %v", m.Mean())
	}
	c := m.Clone()
	c.Set(0, 0, 0)
	if m.At(0, 0) != 100 {
		t.Fatal("clone shares storage")
	}
	if m.Equal(c) {
		t.Fatal("Equal missed a difference")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("Equal failed on identical images")
	}
}

func TestNorm(t *testing.T) {
	m := NewImage(2, 1)
	m.Set(0, 0, 0)
	m.Set(1, 0, 255)
	if m.Norm(0, 0) != 0 || m.Norm(1, 0) != 1 {
		t.Fatal("Norm wrong")
	}
}

func TestCrop(t *testing.T) {
	m := NewImage(4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			m.Set(x, y, uint8(y*4+x))
		}
	}
	c := m.Crop(1, 1, 2, 2)
	if c.W != 2 || c.H != 2 {
		t.Fatal("crop geometry wrong")
	}
	if c.At(0, 0) != 5 || c.At(1, 1) != 10 {
		t.Fatalf("crop content wrong: %v", c.Pix)
	}
	// Out-of-range crop clamps.
	e := m.Crop(3, 3, 3, 3)
	if e.At(2, 2) != 15 {
		t.Fatal("clamped crop wrong")
	}
}

func TestResizeIdentity(t *testing.T) {
	m := NewImage(8, 8)
	for i := range m.Pix {
		m.Pix[i] = uint8(i * 3)
	}
	r := m.Resize(8, 8)
	if !r.Equal(m) {
		t.Fatal("identity resize changed pixels")
	}
}

func TestResizePreservesConstant(t *testing.T) {
	m := NewImage(16, 16)
	m.Fill(77)
	r := m.Resize(7, 9)
	for i, p := range r.Pix {
		if p != 77 {
			t.Fatalf("pixel %d = %d after resize of constant image", i, p)
		}
	}
}

func TestResizeDownUpRoughlyPreservesMean(t *testing.T) {
	m := NewImage(32, 32)
	m.GradientFill(0, 0, 31, 31, 0, 255)
	r := m.Resize(8, 8).Resize(32, 32)
	if d := m.Mean() - r.Mean(); d > 6 || d < -6 {
		t.Fatalf("mean drifted by %v through resize round trip", d)
	}
}

func TestValidate(t *testing.T) {
	m := NewImage(2, 2)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.Pix = m.Pix[:3]
	if err := m.Validate(); err == nil {
		t.Fatal("truncated buffer validated")
	}
}

func TestFillEllipse(t *testing.T) {
	m := NewImage(21, 21)
	m.FillEllipse(10, 10, 5, 5, 0, 255)
	if m.At(10, 10) != 255 {
		t.Fatal("centre not painted")
	}
	if m.At(10, 5) != 255 || m.At(5, 10) != 255 {
		t.Fatal("axis extremes not painted")
	}
	if m.At(0, 0) != 0 || m.At(10, 3) != 0 {
		t.Fatal("outside painted")
	}
}

func TestFillEllipseRotated(t *testing.T) {
	m := NewImage(41, 41)
	// A long thin ellipse rotated 90 degrees must extend vertically.
	m.FillEllipse(20, 20, 15, 2, 1.5707963, 255)
	if m.At(20, 33) != 255 {
		t.Fatal("rotated ellipse missing vertical extent")
	}
	if m.At(33, 20) != 0 {
		t.Fatal("rotated ellipse still horizontal")
	}
}

func TestLineAndArc(t *testing.T) {
	m := NewImage(30, 30)
	m.Line(2, 2, 27, 2, 1, 200)
	if m.At(14, 2) != 200 {
		t.Fatal("line midpoint unpainted")
	}
	a := NewImage(40, 40)
	a.Arc(20, 20, 10, 0, 3.1415926, 2, 180)
	if a.At(20, 30) != 180 { // bottom of circle at angle pi/2
		t.Fatal("arc midpoint unpainted")
	}
	if a.At(20, 10) != 0 { // top half not in [0, pi]
		t.Fatal("arc painted outside span")
	}
}

func TestRects(t *testing.T) {
	m := NewImage(10, 10)
	m.FillRect(2, 2, 5, 5, 50)
	if m.At(3, 3) != 50 || m.At(5, 5) != 0 {
		t.Fatal("FillRect bounds wrong")
	}
	// Reversed coordinates normalise.
	m.FillRect(9, 9, 7, 7, 60)
	if m.At(8, 8) != 60 {
		t.Fatal("reversed FillRect failed")
	}
	s := NewImage(10, 10)
	s.StrokeRect(1, 1, 9, 9, 70)
	if s.At(1, 5) != 70 || s.At(8, 5) != 70 || s.At(5, 1) != 70 || s.At(5, 8) != 70 {
		t.Fatal("StrokeRect edges missing")
	}
	if s.At(5, 5) != 0 {
		t.Fatal("StrokeRect filled interior")
	}
}

func TestGradientFill(t *testing.T) {
	m := NewImage(10, 1)
	m.GradientFill(0, 0, 9, 0, 0, 255)
	if m.At(0, 0) != 0 || m.At(9, 0) != 255 {
		t.Fatal("gradient endpoints wrong")
	}
	if m.At(4, 0) <= m.At(1, 0) {
		t.Fatal("gradient not monotone")
	}
	// Degenerate direction falls back to flat fill.
	f := NewImage(4, 4)
	f.GradientFill(2, 2, 2, 2, 9, 200)
	if f.At(1, 1) != 9 {
		t.Fatal("degenerate gradient not flat")
	}
}

func TestBlend(t *testing.T) {
	dst := NewImage(4, 4)
	src := NewImage(2, 2)
	src.Fill(200)
	dst.Blend(src, 1, 1, 1)
	if dst.At(1, 1) != 200 || dst.At(0, 0) != 0 {
		t.Fatal("opaque blend wrong")
	}
	dst2 := NewImage(4, 4)
	dst2.Fill(100)
	dst2.Blend(src, 0, 0, 0.5)
	if got := dst2.At(0, 0); got != 150 {
		t.Fatalf("50%% blend = %d, want 150", got)
	}
	// Off-canvas blends must not panic.
	dst.Blend(src, -1, -1, 1)
	dst.Blend(src, 3, 3, 1)
}

func TestBoxBlurPreservesConstantAndSmooths(t *testing.T) {
	m := NewImage(16, 16)
	m.Fill(99)
	b := m.BoxBlur(2)
	for i, p := range b.Pix {
		if p != 99 {
			t.Fatalf("blur changed constant image at %d: %d", i, p)
		}
	}
	spike := NewImage(9, 9)
	spike.Set(4, 4, 255)
	sb := spike.BoxBlur(1)
	if sb.At(4, 4) >= 255 {
		t.Fatal("blur did not spread the spike")
	}
	if sb.At(3, 3) == 0 {
		t.Fatal("blur neighbourhood untouched")
	}
	if got := spike.BoxBlur(0); !got.Equal(spike) {
		t.Fatal("radius-0 blur changed image")
	}
}

func TestPGMRoundTrip(t *testing.T) {
	m := NewImage(7, 5)
	for i := range m.Pix {
		m.Pix[i] = uint8(i * 7)
	}
	var buf bytes.Buffer
	if err := m.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("PGM round trip mismatch")
	}
}

func TestPGMASCIIAndComments(t *testing.T) {
	src := "P2\n# a comment\n3 2\n# another\n255\n0 10 20\n30 40 50\n"
	m, err := ReadPGM(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.W != 3 || m.H != 2 || m.At(2, 1) != 50 {
		t.Fatalf("ASCII decode wrong: %+v", m)
	}
}

func TestPGMMaxvalRescale(t *testing.T) {
	src := "P2\n2 1\n15\n0 15\n"
	m, err := ReadPGM(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 0 || m.At(1, 0) != 255 {
		t.Fatalf("maxval rescale wrong: %v", m.Pix)
	}
}

// TestPGM16BitDecode covers the spec-legal maxval range 256..65535: P5
// payloads carry big-endian 2-byte samples that must rescale to 8-bit.
// The seed bug rejected these files outright ("unsupported maxval").
func TestPGM16BitDecode(t *testing.T) {
	// 2x2 raster, maxval 65535: samples 0, 16384, 32768, 65535.
	src := append([]byte("P5\n2 2\n65535\n"),
		0x00, 0x00, 0x40, 0x00, 0x80, 0x00, 0xff, 0xff)
	m, err := ReadPGM(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{0, 64, 128, 255}
	for i, w := range want {
		if m.Pix[i] != w {
			t.Fatalf("pixel %d = %d, want %d (raster %v)", i, m.Pix[i], w, m.Pix)
		}
	}
	// Non-power-of-two maxval: 1000 → sample 500 lands mid-range.
	src = append([]byte("P5\n1 1\n1000\n"), 0x01, 0xf4)
	m, err = ReadPGM(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.Pix[0] != 128 {
		t.Fatalf("maxval-1000 midpoint = %d, want 128", m.Pix[0])
	}
	// ASCII P2 with a wide maxval follows the same rescale.
	m, err = ReadPGM(strings.NewReader("P2\n2 1\n1023\n0 1023\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Pix[0] != 0 || m.Pix[1] != 255 {
		t.Fatalf("wide ASCII rescale wrong: %v", m.Pix)
	}
}

// TestPGM16BitShortData asserts a truncated wide-sample payload errors
// instead of decoding a half raster.
func TestPGM16BitShortData(t *testing.T) {
	src := append([]byte("P5\n2 2\n65535\n"), 0x00, 0x01, 0x02)
	if _, err := ReadPGM(bytes.NewReader(src)); err == nil {
		t.Fatal("truncated 16-bit payload decoded")
	}
}

func TestPGMErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"P9\n2 2\n255\n",
		"P5\n0 2\n255\n",
		"P5\n2 2\n70000\n",
		"P5\n2 2\n255\nXY",         // short data
		"P2\n2 1\n255\n0",          // short ASCII data
		"P2\n1 1\n255\n-4",         // negative sample
		"P5\n1 1\n65536\n\x00\x00", // maxval above the 2-byte range
	} {
		if _, err := ReadPGM(strings.NewReader(src)); err == nil {
			t.Fatalf("decode of %q succeeded", src)
		}
	}
}

func BenchmarkResize(b *testing.B) {
	m := NewImage(512, 512)
	m.GradientFill(0, 0, 511, 511, 0, 255)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Resize(64, 64)
	}
}

func BenchmarkBoxBlur(b *testing.B) {
	m := NewImage(256, 256)
	m.GradientFill(0, 0, 255, 255, 0, 255)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.BoxBlur(2)
	}
}
