package hv

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorAddSign(t *testing.T) {
	r := NewRNG(1)
	a := NewRand(r, 512)
	acc := NewAccumulator(512)
	acc.Add(a)
	out, ties := acc.Sign(nil)
	if ties != 0 {
		t.Fatalf("single add produced %d ties", ties)
	}
	if !out.Equal(a) {
		t.Fatal("sign of single vector != vector")
	}
}

func TestAccumulatorMajoritySimilarity(t *testing.T) {
	// Bundling n random vectors: each constituent keeps cos ~ C/sqrt(n).
	r := NewRNG(3)
	d := 10000
	acc := NewAccumulator(d)
	vs := make([]*Vector, 9)
	for i := range vs {
		vs[i] = NewRand(r, d)
		acc.Add(vs[i])
	}
	bundle, _ := acc.Sign(NewRand(r, d))
	for i, v := range vs {
		cos := bundle.Cos(v)
		if cos < 0.15 {
			t.Fatalf("constituent %d lost from bundle: cos=%v", i, cos)
		}
	}
	// An unrelated vector stays near orthogonal.
	if cos := bundle.Cos(NewRand(r, d)); math.Abs(cos) > 0.08 {
		t.Fatalf("unrelated vector cos %v", cos)
	}
}

func TestAccumulatorAddScaled(t *testing.T) {
	r := NewRNG(4)
	a, b := NewRand(r, 256), NewRand(r, 256)
	acc := NewAccumulator(256)
	acc.AddScaled(a, 3)
	acc.Add(b)
	// a should dominate everywhere the two disagree.
	out, _ := acc.Sign(nil)
	if !out.Equal(a) {
		t.Fatal("scale-3 vector did not dominate scale-1")
	}
}

func TestAccumulatorAddScaledNegative(t *testing.T) {
	r := NewRNG(5)
	a := NewRand(r, 256)
	acc := NewAccumulator(256)
	acc.AddScaled(a, -2)
	out, _ := acc.Sign(nil)
	if !out.Equal(a.Neg()) {
		t.Fatal("negative scale did not negate")
	}
}

func TestAccumulatorSignTieBreak(t *testing.T) {
	r := NewRNG(8)
	d := 10000
	acc := NewAccumulator(d)
	tie := NewRand(r, d)
	out, ties := acc.Sign(tie)
	if ties != d {
		t.Fatalf("ties = %d, want %d", ties, d)
	}
	if !out.Equal(tie) {
		t.Fatal("tie-break did not use tie vector")
	}
}

func TestAccumulatorDimMismatchPanics(t *testing.T) {
	acc := NewAccumulator(64)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched Add")
		}
	}()
	acc.Add(New(128))
}

// Property: accumulation is order-independent (commutative bundling).
func TestAccumulatorCommutativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		vs := []*Vector{NewRand(r, 192), NewRand(r, 192), NewRand(r, 192)}
		a1 := NewAccumulator(192)
		a2 := NewAccumulator(192)
		a1.Add(vs[0])
		a1.Add(vs[1])
		a1.Add(vs[2])
		a2.Add(vs[2])
		a2.Add(vs[0])
		a2.Add(vs[1])
		for i := range a1.counts {
			if a1.counts[i] != a2.counts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	r := NewRNG(1)
	v := NewRand(r, 4096)
	acc := NewAccumulator(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc.Add(v)
	}
}

func BenchmarkAccumulatorSign(b *testing.B) {
	r := NewRNG(2)
	acc := NewAccumulator(4096)
	for i := 0; i < 32; i++ {
		acc.Add(NewRand(r, 4096))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc.Sign(nil)
	}
}
