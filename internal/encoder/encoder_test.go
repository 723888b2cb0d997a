package encoder

import (
	"math"
	"testing"

	"hdface/internal/hv"
)

func TestIDLevelBasics(t *testing.T) {
	e := NewIDLevel(2048, 10, 16, 0, 1, 1)
	v := e.Encode(make([]float64, 10))
	if v.D() != 2048 {
		t.Fatal("output dimension wrong")
	}
}

func TestIDLevelPanicsOnBadInput(t *testing.T) {
	e := NewIDLevel(256, 4, 8, 0, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong feature count")
		}
	}()
	e.Encode(make([]float64, 3))
}

func TestIDLevelConstructorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewIDLevel(0, 4, 8, 0, 1, 1) },
		func() { NewIDLevel(256, 0, 8, 0, 1, 1) },
		func() { NewIDLevel(256, 4, 1, 0, 1, 1) },
		func() { NewIDLevel(256, 4, 8, 1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid constructor did not panic")
				}
			}()
			f()
		}()
	}
}

func TestIDLevelDeterministic(t *testing.T) {
	a := NewIDLevel(1024, 8, 8, 0, 1, 7)
	b := NewIDLevel(1024, 8, 8, 0, 1, 7)
	x := []float64{0.1, 0.5, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4}
	if !a.Encode(x).Equal(b.Encode(x)) {
		t.Fatal("same seed produced different encodings")
	}
}

func TestIDLevelQuantise(t *testing.T) {
	e := NewIDLevel(256, 2, 4, 0, 1, 1)
	cases := map[float64]int{-1: 0, 0: 0, 0.2: 0, 0.4: 1, 0.7: 2, 0.99: 2, 1: 3, 5: 3}
	for v, want := range cases {
		if got := e.quantise(v); got != want {
			t.Errorf("quantise(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestIDLevelChainLocality(t *testing.T) {
	// Adjacent levels nearly identical, extreme levels nearly orthogonal.
	e := NewIDLevel(8192, 2, 32, 0, 1, 3)
	adj := e.levels[0].Cos(e.levels[1])
	far := e.levels[0].Cos(e.levels[31])
	if adj < 0.9 {
		t.Fatalf("adjacent levels cos %v, want > 0.9", adj)
	}
	if math.Abs(far) > 0.12 {
		t.Fatalf("extreme levels cos %v, want ~0", far)
	}
	// Monotone decay along the chain.
	prev := 1.0
	for l := 1; l < 32; l += 6 {
		cos := e.levels[0].Cos(e.levels[l])
		if cos > prev+0.02 {
			t.Fatalf("level similarity not decaying at %d: %v > %v", l, cos, prev)
		}
		prev = cos
	}
}

func TestIDLevelSimilarInputsSimilarCodes(t *testing.T) {
	e := NewIDLevel(4096, 16, 32, 0, 1, 5)
	base := make([]float64, 16)
	for i := range base {
		base[i] = float64(i) / 16
	}
	near := make([]float64, 16)
	copy(near, base)
	near[0] += 0.03 // one feature, one level step at most
	far := make([]float64, 16)
	for i := range far {
		far[i] = 1 - base[i]
	}
	vb, vn, vf := e.Encode(base), e.Encode(near), e.Encode(far)
	if vb.Cos(vn) <= vb.Cos(vf) {
		t.Fatalf("locality broken: near %v, far %v", vb.Cos(vn), vb.Cos(vf))
	}
	if vb.Cos(vn) < 0.5 {
		t.Fatalf("near input similarity too low: %v", vb.Cos(vn))
	}
}

func TestIDLevelStats(t *testing.T) {
	e := NewIDLevel(1024, 4, 8, 0, 1, 1)
	e.Encode(make([]float64, 4))
	if e.Stats.Encodes != 1 || e.Stats.BitOps == 0 {
		t.Fatalf("stats not counted: %+v", e.Stats)
	}
}

func TestProjectionBasics(t *testing.T) {
	e := NewProjection(1024, 8, 1)
	if e.D() != 1024 || e.Features() != 8 {
		t.Fatal("accessors wrong")
	}
	v := e.Encode(make([]float64, 8))
	if v.D() != 1024 {
		t.Fatal("output dimension wrong")
	}
	if e.Stats.MACs != 1024*8 {
		t.Fatalf("MACs = %d", e.Stats.MACs)
	}
}

func TestProjectionPanics(t *testing.T) {
	e := NewProjection(256, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong feature count")
		}
	}()
	e.Encode(make([]float64, 5))
}

func TestProjectionDeterministic(t *testing.T) {
	a := NewProjection(512, 6, 9)
	b := NewProjection(512, 6, 9)
	x := []float64{1, -0.5, 0.25, 0, 0.75, -1}
	if !a.Encode(x).Equal(b.Encode(x)) {
		t.Fatal("same seed produced different encodings")
	}
}

func TestProjectionPreservesAngles(t *testing.T) {
	// Sign random projections: hypervector cosine ~ 1 - 2*theta/pi.
	e := NewProjection(16384, 32, 11)
	r := hv.NewRNG(4)
	a := make([]float64, 32)
	for i := range a {
		a[i] = r.NormFloat64()
	}
	// b = a rotated slightly: cos(theta) ~ 0.9.
	b := make([]float64, 32)
	noise := make([]float64, 32)
	var na, nn float64
	for i := range b {
		noise[i] = r.NormFloat64()
		na += a[i] * a[i]
		nn += noise[i] * noise[i]
	}
	scale := math.Sqrt(na/nn) * 0.48
	var dot, nb float64
	for i := range b {
		b[i] = a[i] + scale*noise[i]
		dot += a[i] * b[i]
		nb += b[i] * b[i]
	}
	cosTheta := dot / math.Sqrt(na*nb)
	want := 1 - 2*math.Acos(cosTheta)/math.Pi
	got := e.Encode(a).Cos(e.Encode(b))
	if math.Abs(got-want) > 0.08 {
		t.Fatalf("kernel mismatch: got %v, want %v (cosTheta %v)", got, want, cosTheta)
	}
}

func BenchmarkIDLevelEncode(b *testing.B) {
	e := NewIDLevel(4096, 324, 32, 0, 1, 1)
	x := make([]float64, 324)
	for i := range x {
		x[i] = float64(i%17) / 17
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Encode(x)
	}
}

func BenchmarkProjectionEncode(b *testing.B) {
	e := NewProjection(4096, 324, 1)
	x := make([]float64, 324)
	for i := range x {
		x[i] = float64(i%17) / 17
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Encode(x)
	}
}
