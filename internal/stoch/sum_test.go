package stoch

import (
	"math"
	"testing"
	"testing/quick"

	"hdface/internal/hv"
)

func TestWeightedSumUniform(t *testing.T) {
	c := NewCodec(16384, 21)
	vals := []float64{0.8, -0.4, 0.2, 0.6}
	vs := make([]*hv.Vector, len(vals))
	ws := make([]float64, len(vals))
	var want float64
	for i, a := range vals {
		vs[i] = c.Construct(a)
		ws[i] = 1
		want += a / float64(len(vals))
	}
	got := c.Decode(c.WeightedSum(vs, ws))
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("uniform sum = %v, want %v", got, want)
	}
}

func TestWeightedSumNonUniform(t *testing.T) {
	c := NewCodec(16384, 22)
	vs := []*hv.Vector{c.Construct(1), c.Construct(-1)}
	ws := []float64{3, 1}
	got := c.Decode(c.WeightedSum(vs, ws))
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("3:1 sum of +-1 = %v, want 0.5", got)
	}
}

func TestWeightedSumSkipsZeroWeights(t *testing.T) {
	c := NewCodec(8192, 23)
	vs := []*hv.Vector{c.Construct(0.5), c.Construct(-1)}
	got := c.Decode(c.WeightedSum(vs, []float64{1, 0}))
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("zero-weight term leaked: %v", got)
	}
}

func TestWeightedSumSingle(t *testing.T) {
	c := NewCodec(4096, 24)
	v := c.Construct(0.3)
	if !c.WeightedSum([]*hv.Vector{v}, []float64{2}).Equal(v) {
		t.Fatal("single-element sum should be the element itself")
	}
}

func TestWeightedSumPanics(t *testing.T) {
	c := NewCodec(256, 25)
	v := c.Construct(0)
	for name, f := range map[string]func(){
		"empty":    func() { c.WeightedSum(nil, nil) },
		"misalign": func() { c.WeightedSum([]*hv.Vector{v}, []float64{1, 2}) },
		"negative": func() { c.WeightedSum([]*hv.Vector{v}, []float64{-1}) },
		"allzero":  func() { c.WeightedSum([]*hv.Vector{v}, []float64{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: WeightedSum of constructed values stays within 6 sigma of the
// exact convex combination for random weights.
func TestWeightedSumProperty(t *testing.T) {
	c := NewCodec(8192, 29)
	bound := 6 / math.Sqrt(8192.0)
	f := func(a, b uint8, wRaw uint8) bool {
		x := float64(a)/255*2 - 1
		y := float64(b)/255*2 - 1
		w := 0.1 + float64(wRaw)/255*0.8
		got := c.Decode(c.WeightedSum(
			[]*hv.Vector{c.Construct(x), c.Construct(y)},
			[]float64{w, 1 - w}))
		want := w*x + (1-w)*y
		// Two constructions plus one select: allow 3 stacked deviations.
		return math.Abs(got-want) <= 3*bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWeightedSum9(b *testing.B) {
	c := NewCodec(4096, 1)
	vs := make([]*hv.Vector, 9)
	ws := make([]float64, 9)
	for i := range vs {
		vs[i] = c.Construct(float64(i)/8*2 - 1)
		ws[i] = float64(i + 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.WeightedSum(vs, ws)
	}
}
