package hv

import "fmt"

// Accumulator is a per-dimension integer counter used to bundle many
// hypervectors: Add/AddScaled update signed counts, Sign thresholds back to
// a binary hypervector. It is the superposition ("bundling") memory that
// HDC class vectors are built from before binarisation.
type Accumulator struct {
	d      int
	counts []int32
}

// NewAccumulator returns an empty accumulator of dimensionality d.
func NewAccumulator(d int) *Accumulator {
	if d <= 0 {
		panic("hv: dimensionality must be positive")
	}
	return &Accumulator{d: d, counts: make([]int32, d)}
}

func (a *Accumulator) mustMatch(v *Vector) {
	if a.d != v.d {
		panic(fmt.Sprintf("hv: accumulator dimensionality %d vs vector %d", a.d, v.d))
	}
}

// Add accumulates v (+1 components add 1, -1 components subtract 1).
func (a *Accumulator) Add(v *Vector) {
	a.mustMatch(v)
	for i := 0; i < a.d; i++ {
		w := v.words[i/64] >> (uint(i) % 64) & 1
		a.counts[i] += int32(2*w) - 1
	}
}

// AddScaled accumulates round(scale) copies of v's sign pattern using an
// integer weight. Scale may be negative.
func (a *Accumulator) AddScaled(v *Vector, scale int32) {
	a.mustMatch(v)
	for i := 0; i < a.d; i++ {
		w := v.words[i/64] >> (uint(i) % 64) & 1
		a.counts[i] += (int32(2*w) - 1) * scale
	}
}

// Sign thresholds the accumulator into a binary hypervector: positive counts
// map to +1, negative to -1, and exact zeros are broken by tie, a caller
// supplied tie-break vector (typically random). When tie is nil zeros map
// to -1 deterministically. The number of ties is returned for diagnostics.
func (a *Accumulator) Sign(tie *Vector) (*Vector, int) {
	out := New(a.d)
	ties := 0
	for i := 0; i < a.d; i++ {
		c := a.counts[i]
		switch {
		case c > 0:
			out.words[i/64] |= 1 << (uint(i) % 64)
		case c == 0:
			ties++
			if tie != nil && tie.words[i/64]>>(uint(i)%64)&1 == 1 {
				out.words[i/64] |= 1 << (uint(i) % 64)
			}
		}
	}
	return out, ties
}
