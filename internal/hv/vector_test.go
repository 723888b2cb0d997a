package hv

import (
	"math"
	"testing"
	"testing/quick"
)

const testD = 4096

func TestNewIsAllMinusOne(t *testing.T) {
	v := New(100)
	for i := 0; i < 100; i++ {
		if v.Bit(i) != -1 {
			t.Fatalf("bit %d of fresh vector is %d", i, v.Bit(i))
		}
	}
	if v.OnesCount() != 0 {
		t.Fatalf("fresh vector has %d ones", v.OnesCount())
	}
}

func TestNewPanicsOnBadD(t *testing.T) {
	for _, d := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d) did not panic", d)
				}
			}()
			New(d)
		}()
	}
}

func TestSetBitGetBit(t *testing.T) {
	v := New(130)
	v.SetBit(0, 1)
	v.SetBit(64, 1)
	v.SetBit(129, 1)
	for i := 0; i < 130; i++ {
		want := -1
		if i == 0 || i == 64 || i == 129 {
			want = 1
		}
		if v.Bit(i) != want {
			t.Fatalf("bit %d = %d, want %d", i, v.Bit(i), want)
		}
	}
	v.SetBit(64, -1)
	if v.Bit(64) != -1 {
		t.Fatal("clearing bit 64 failed")
	}
	if v.OnesCount() != 2 {
		t.Fatalf("OnesCount = %d, want 2", v.OnesCount())
	}
}

func TestFromWords(t *testing.T) {
	w := []uint64{^uint64(0), ^uint64(0)}
	v, err := FromWords(100, w)
	if err != nil {
		t.Fatal(err)
	}
	if v.OnesCount() != 100 {
		t.Fatalf("tail bits not masked: OnesCount = %d", v.OnesCount())
	}
	if _, err := FromWords(100, []uint64{1}); err == nil {
		t.Fatal("FromWords accepted wrong word count")
	}
	if _, err := FromWords(0, nil); err == nil {
		t.Fatal("FromWords accepted d=0")
	}
}

func TestRandIsBalanced(t *testing.T) {
	r := NewRNG(1)
	v := NewRand(r, 100000)
	frac := float64(v.OnesCount()) / float64(v.D())
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("random vector +1 fraction %v, want ~0.5", frac)
	}
}

func TestRandomVectorsNearOrthogonal(t *testing.T) {
	r := NewRNG(2)
	a, b := NewRand(r, testD), NewRand(r, testD)
	if cos := a.Cos(b); math.Abs(cos) > 0.08 {
		t.Fatalf("random hypervectors have |cos| = %v, want ~0", cos)
	}
}

func TestRandBiasedDensity(t *testing.T) {
	r := NewRNG(3)
	for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.7313, 0.9, 1} {
		v := NewRandBiased(r, 100000, p)
		if frac := float64(v.OnesCount()) / float64(v.D()); math.Abs(frac-p) > 0.01 {
			t.Fatalf("RandBiased(%v) density %v", p, frac)
		}
	}
}

func TestXorSelfIsZero(t *testing.T) {
	r := NewRNG(4)
	a := NewRand(r, testD)
	out := New(testD).Xor(a, a)
	if out.OnesCount() != 0 {
		t.Fatal("a^a is not all zero")
	}
}

func TestXorAlias(t *testing.T) {
	r := NewRNG(5)
	a := NewRand(r, testD)
	b := NewRand(r, testD)
	want := New(testD).Xor(a, b)
	a2 := a.Clone()
	a2.Xor(a2, b) // aliased destination
	if !a2.Equal(want) {
		t.Fatal("aliased Xor wrong")
	}
}

func TestXor3MatchesPairwise(t *testing.T) {
	r := NewRNG(6)
	a, b, c := NewRand(r, testD), NewRand(r, testD), NewRand(r, testD)
	want := New(testD).Xor(New(testD).Xor(a, b), c)
	got := New(testD).Xor3(a, b, c)
	if !got.Equal(want) {
		t.Fatal("Xor3 != chained Xor")
	}
}

func TestNotIsNegation(t *testing.T) {
	r := NewRNG(7)
	a := NewRand(r, 1000)
	n := a.Neg()
	for i := 0; i < 1000; i++ {
		if a.Bit(i) != -n.Bit(i) {
			t.Fatalf("negation wrong at %d", i)
		}
	}
	if got := a.Cos(n); got != -1 {
		t.Fatalf("cos(a, -a) = %v, want -1", got)
	}
	// Tail bits must stay clear after Not on non-word-aligned D.
	odd := NewRand(r, 100)
	no := odd.Neg()
	if no.OnesCount() != 100-odd.OnesCount() {
		t.Fatal("Not leaked tail bits")
	}
}

func TestSelect(t *testing.T) {
	d := 256
	a := New(d)
	for i := 0; i < d; i++ {
		a.SetBit(i, 1) // all +1
	}
	b := New(d) // all -1
	mask := New(d)
	for i := 0; i < d; i += 2 {
		mask.SetBit(i, 1)
	}
	out := New(d).Select(mask, a, b)
	for i := 0; i < d; i++ {
		want := -1
		if i%2 == 0 {
			want = 1
		}
		if out.Bit(i) != want {
			t.Fatalf("Select wrong at %d", i)
		}
	}
}

func TestSelectWeightedAverageStatistics(t *testing.T) {
	// Select with a Bernoulli(p) mask must give cos(out, a) ~ p*1 + (1-p)*cos(a,b).
	r := NewRNG(8)
	d := 100000
	a, b := NewRand(r, d), NewRand(r, d)
	p := 0.7
	mask := NewRandBiased(r, d, p)
	out := New(d).Select(mask, a, b)
	if got := out.Cos(a); math.Abs(got-p) > 0.02 {
		t.Fatalf("cos(out,a) = %v, want ~%v", got, p)
	}
	if got := out.Cos(b); math.Abs(got-(1-p)) > 0.02 {
		t.Fatalf("cos(out,b) = %v, want ~%v", got, 1-p)
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	r := NewRNG(9)
	for _, d := range []int{64, 128, testD, 100, 130} {
		a := NewRand(r, d)
		fwd := New(d).Permute(a, 17)
		back := New(d).Permute(fwd, d-17)
		if !back.Equal(a) {
			t.Fatalf("d=%d: permute round trip failed", d)
		}
	}
}

func TestPermutePreservesPopulation(t *testing.T) {
	r := NewRNG(10)
	for _, d := range []int{64, testD, 100} {
		a := NewRand(r, d)
		p := New(d).Permute(a, 33)
		if p.OnesCount() != a.OnesCount() {
			t.Fatalf("d=%d: permutation changed population", d)
		}
	}
}

func TestPermuteZeroIsIdentity(t *testing.T) {
	r := NewRNG(11)
	a := NewRand(r, testD)
	if !New(testD).Permute(a, 0).Equal(a) {
		t.Fatal("rho^0 != identity")
	}
	if !New(testD).Permute(a, testD).Equal(a) {
		t.Fatal("rho^D != identity")
	}
	if !New(testD).Permute(a, -testD).Equal(a) {
		t.Fatal("rho^-D != identity")
	}
}

func TestPermuteExactBits(t *testing.T) {
	d := 128
	a := New(d)
	a.SetBit(0, 1)
	a.SetBit(127, 1)
	p := New(d).Permute(a, 1)
	// Bit 0 moves to 1; bit 127 wraps around to 0.
	if p.Bit(1) != 1 || p.Bit(0) != 1 || p.Bit(127) != -1 {
		t.Fatal("single-step permute misplaced bits")
	}
	if p.OnesCount() != 2 {
		t.Fatalf("population changed: %d", p.OnesCount())
	}
}

func TestPermuteNearOrthogonalToSource(t *testing.T) {
	r := NewRNG(12)
	a := NewRand(r, testD)
	p := New(testD).Permute(a, 1)
	if cos := a.Cos(p); math.Abs(cos) > 0.08 {
		t.Fatalf("rho(a) should be ~orthogonal to a, cos = %v", cos)
	}
}

func TestHammingDotCosRelations(t *testing.T) {
	r := NewRNG(13)
	a, b := NewRand(r, testD), NewRand(r, testD)
	h := a.Hamming(b)
	if got := a.Dot(b); got != testD-2*h {
		t.Fatalf("dot = %d, want %d", got, testD-2*h)
	}
	if got := a.Cos(b); math.Abs(got-float64(testD-2*h)/testD) > 1e-12 {
		t.Fatalf("cos mismatch")
	}
	if got := a.HammingSim(b); math.Abs(got-(1-float64(h)/testD)) > 1e-12 {
		t.Fatalf("hamming sim mismatch")
	}
	if a.Cos(a) != 1 {
		t.Fatal("cos(a,a) != 1")
	}
	if a.Hamming(a) != 0 {
		t.Fatal("hamming(a,a) != 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := NewRNG(14)
	a := NewRand(r, 200)
	c := a.Clone()
	c.SetBit(0, -a.Bit(0))
	if a.Bit(0) == c.Bit(0) {
		t.Fatal("clone shares storage")
	}
}

func TestEqualDimensionMismatch(t *testing.T) {
	if New(64).Equal(New(128)) {
		t.Fatal("vectors of different D reported equal")
	}
}

func TestDimMismatchPanics(t *testing.T) {
	a, b := New(64), New(128)
	for name, f := range map[string]func(){
		"Xor":     func() { New(64).Xor(a, b) },
		"Hamming": func() { a.Hamming(b) },
		"Select":  func() { New(64).Select(a, a, b) },
		"Permute": func() { New(128).Permute(a, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched D did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBernoulliFillExtremes(t *testing.T) {
	r := NewRNG(19)
	zero := NewRandBiased(r, 1000, 0)
	if zero.OnesCount() != 0 {
		t.Fatal("p=0 produced ones")
	}
	one := NewRandBiased(r, 1000, 1)
	if one.OnesCount() != 1000 {
		t.Fatal("p=1 produced zeros")
	}
}

// Property: XOR distance is a metric satisfying the triangle inequality on
// random triples.
func TestHammingTriangleInequality(t *testing.T) {
	r := NewRNG(20)
	f := func(seed uint64) bool {
		rr := NewRNG(seed ^ r.Uint64())
		a, b, c := NewRand(rr, 512), NewRand(rr, 512), NewRand(rr, 512)
		return a.Hamming(c) <= a.Hamming(b)+b.Hamming(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Select(mask, a, a) == a for any mask.
func TestSelectIdempotentProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := NewRand(r, 320)
		mask := NewRand(r, 320)
		return New(320).Select(mask, a, a).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: permutation is a bijection — composing rho^j after rho^k equals
// rho^(j+k).
func TestPermuteComposition(t *testing.T) {
	f := func(seed uint64, j, k uint8) bool {
		r := NewRNG(seed)
		d := 256
		a := NewRand(r, d)
		jk := New(d).Permute(New(d).Permute(a, int(j)), int(k))
		direct := New(d).Permute(a, int(j)+int(k))
		return jk.Equal(direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkXorKernel(b *testing.B) {
	r := NewRNG(1)
	x, y := NewRand(r, 10240), NewRand(r, 10240)
	out := New(10240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out.Xor(x, y)
	}
}

// BenchmarkXorPerBit is the ablation comparator for DESIGN.md: per-dimension
// XOR instead of word-parallel.
func BenchmarkXorPerBit(b *testing.B) {
	r := NewRNG(1)
	x, y := NewRand(r, 10240), NewRand(r, 10240)
	out := New(10240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 10240; j++ {
			if x.Bit(j) != y.Bit(j) {
				out.SetBit(j, 1)
			} else {
				out.SetBit(j, -1)
			}
		}
	}
}

func BenchmarkHamming(b *testing.B) {
	r := NewRNG(2)
	x, y := NewRand(r, 10240), NewRand(r, 10240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Hamming(y)
	}
}

func BenchmarkBernoulliMask(b *testing.B) {
	r := NewRNG(3)
	v := New(10240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.RandBiased(r, 0.37)
	}
}

func BenchmarkBernoulliMaskHalf(b *testing.B) {
	r := NewRNG(4)
	v := New(10240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.RandBiased(r, 0.5)
	}
}
