package noise

import (
	"math"
	"testing"

	"hdface/internal/hv"
	"hdface/internal/nn"
)

func TestFlipVectorRate(t *testing.T) {
	in := New(1)
	r := hv.NewRNG(2)
	d := 100000
	v := hv.NewRand(r, d)
	orig := v.Clone()
	flips := in.FlipVector(v, 0.1)
	if got := float64(flips) / float64(d); math.Abs(got-0.1) > 0.01 {
		t.Fatalf("flip rate %v, want ~0.1", got)
	}
	if got := orig.Hamming(v); got != flips {
		t.Fatalf("hamming %d != reported flips %d", got, flips)
	}
}

func TestFlipVectorZeroRate(t *testing.T) {
	in := New(1)
	v := hv.NewRand(hv.NewRNG(3), 1024)
	orig := v.Clone()
	if flips := in.FlipVector(v, 0); flips != 0 || !v.Equal(orig) {
		t.Fatal("zero rate mutated vector")
	}
}

func TestFlipVectors(t *testing.T) {
	in := New(4)
	r := hv.NewRNG(5)
	vs := []*hv.Vector{hv.NewRand(r, 4096), hv.NewRand(r, 4096)}
	total := in.FlipVectors(vs, 0.05)
	if total == 0 {
		t.Fatal("no flips across vectors")
	}
}

func TestFlipVectorDeterministic(t *testing.T) {
	r := hv.NewRNG(6)
	base := hv.NewRand(r, 2048)
	a, b := base.Clone(), base.Clone()
	New(7).FlipVector(a, 0.1)
	New(7).FlipVector(b, 0.1)
	if !a.Equal(b) {
		t.Fatal("same seed produced different fault patterns")
	}
}

func TestFlipQuantized(t *testing.T) {
	m, err := nn.New(nn.Config{In: 4, H1: 8, H2: 8, Out: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, err := nn.Quantize(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	in := New(8)
	flips := in.FlipQuantized(q, 0.1)
	want := float64(q.WeightBits()) * 0.1
	if math.Abs(float64(flips)-want) > 4*math.Sqrt(want) {
		t.Fatalf("flips %d, want ~%v", flips, want)
	}
	if in.FlipQuantized(q, 0) != 0 {
		t.Fatal("zero rate flipped bits")
	}
}

func TestFlipFloats(t *testing.T) {
	in := New(9)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i) / 500
	}
	orig := append([]float64(nil), xs...)
	flips := in.FlipFloats(xs, 0.02)
	if flips == 0 {
		t.Fatal("no flips")
	}
	changed := 0
	for i := range xs {
		if xs[i] != orig[i] {
			changed++
		}
		if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
			t.Fatalf("non-finite value leaked at %d", i)
		}
	}
	if changed == 0 {
		t.Fatal("values unchanged despite flips")
	}
	// Expected flips: 500 * 64 * 0.02 = 640.
	if math.Abs(float64(flips)-640) > 4*math.Sqrt(640) {
		t.Fatalf("flip count %d far from 640", flips)
	}
}

func TestFlipImagePixels(t *testing.T) {
	in := New(11)
	pix := make([]uint8, 10000)
	flips := in.FlipImagePixels(pix, 0.05)
	want := 10000 * 8 * 0.05
	if math.Abs(float64(flips)-want) > 4*math.Sqrt(want) {
		t.Fatalf("flips %d, want ~%v", flips, want)
	}
	changed := 0
	for _, p := range pix {
		if p != 0 {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("pixels unchanged")
	}
	if in.FlipImagePixels(pix, 0) != 0 {
		t.Fatal("zero rate flipped pixels")
	}
}

// The robustness asymmetry at the heart of Table 2: the same bit-error rate
// barely moves hypervector similarity but wrecks float values.
func TestHolographicVsFloatSensitivity(t *testing.T) {
	r := hv.NewRNG(12)
	d := 10000
	a := hv.NewRand(r, d)
	noisy := a.Clone()
	New(13).FlipVector(noisy, 0.02)
	if cos := a.Cos(noisy); cos < 0.9 {
		t.Fatalf("2%% flips dropped hypervector cos to %v", cos)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 0.5
	}
	New(14).FlipFloats(xs, 0.02)
	var relErr float64
	for _, x := range xs {
		relErr += math.Abs(x-0.5) / 0.5
	}
	relErr /= float64(len(xs))
	if relErr < 1 {
		t.Fatalf("float mean relative error %v — expected catastrophic (>100%%)", relErr)
	}
}

func BenchmarkFlipVector(b *testing.B) {
	in := New(1)
	v := hv.NewRand(hv.NewRNG(2), 10240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.FlipVector(v, 0.05)
	}
}

func TestFlipFixed8(t *testing.T) {
	in := New(15)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i%256) / 255
	}
	orig := append([]float64(nil), xs...)
	flips := in.FlipFixed8(xs, 0, 1, 0.05)
	want := 2000 * 8 * 0.05
	if math.Abs(float64(flips)-want) > 4*math.Sqrt(want) {
		t.Fatalf("flips %d, want ~%v", flips, want)
	}
	for i, x := range xs {
		if x < 0 || x > 1 {
			t.Fatalf("value %d left [0,1]: %v", i, x)
		}
		_ = orig[i]
	}
	// Zero rate only requantises; values stay within one code step.
	ys := []float64{0.1, 0.9}
	if in.FlipFixed8(ys, 0, 1, 0) != 0 {
		t.Fatal("zero rate flipped bits")
	}
	// Degenerate range is a no-op.
	if in.FlipFixed8(ys, 1, 1, 0.5) != 0 {
		t.Fatal("degenerate range flipped bits")
	}
}

func TestFlipFixed8GentlerThanFloat(t *testing.T) {
	// The motivation for fixed-point fault surfaces: the same bit-error
	// rate produces bounded damage on 8-bit codes but unbounded relative
	// error on IEEE-754 words.
	mk := func() []float64 {
		xs := make([]float64, 3000)
		for i := range xs {
			xs[i] = 0.5
		}
		return xs
	}
	meanAbs := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += math.Abs(x - 0.5)
		}
		return s / float64(len(xs))
	}
	fx := mk()
	New(16).FlipFixed8(fx, 0, 1, 0.02)
	fl := mk()
	New(17).FlipFloats(fl, 0.02)
	if meanAbs(fx) >= meanAbs(fl) {
		t.Fatalf("fixed-point damage %v not below float damage %v", meanAbs(fx), meanAbs(fl))
	}
}

func TestFlipVectorsPerVectorSubstream(t *testing.T) {
	r := hv.NewRNG(8)
	d := 4096
	base := make([]*hv.Vector, 4)
	for i := range base {
		base[i] = hv.NewRand(r, d)
	}
	clone := func() []*hv.Vector {
		out := make([]*hv.Vector, len(base))
		for i, v := range base {
			out[i] = v.Clone()
		}
		return out
	}
	// Batch corruption equals per-index corruption: vector i's pattern is
	// keyed on (seed, i), not on how many vectors came before it.
	batch := clone()
	New(9).FlipVectors(batch, 0.1)
	solo := clone()
	in := New(9)
	for i := len(solo) - 1; i >= 0; i-- { // reverse order must not matter
		in.FlipVectorAt(solo[i], uint64(i), 0.1)
	}
	for i := range base {
		if !batch[i].Equal(solo[i]) {
			t.Fatalf("vector %d: batch and per-index patterns differ", i)
		}
	}
	// Distinct indices draw distinct patterns.
	a, b := base[0].Clone(), base[0].Clone()
	in.FlipVectorAt(a, 0, 0.1)
	in.FlipVectorAt(b, 1, 0.1)
	if a.Equal(b) {
		t.Fatal("indices 0 and 1 shared a fault pattern")
	}
	// The substream ignores the injector's shared sequential stream.
	drained := New(9)
	drained.FlipVector(base[3].Clone(), 0.5) // advance the shared stream
	c := base[0].Clone()
	drained.FlipVectorAt(c, 0, 0.1)
	if !c.Equal(a) {
		t.Fatal("FlipVectorAt pattern depends on shared stream position")
	}
	// Rate 0 is a no-op.
	if in.FlipVectorAt(base[0].Clone(), 0, 0) != 0 {
		t.Fatal("zero rate flipped bits")
	}
}
