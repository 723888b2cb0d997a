// Package encoder maps original-space (floating point) feature vectors
// into binary hypervectors — the front-end HDFace configuration (1) uses
// when HOG runs on the original data representation and a separate HDC
// encoding step is therefore required. Two standard encoders are provided:
// the ID-level scheme and a nonlinear random-projection scheme.
package encoder

import (
	"fmt"
	"sync/atomic"

	"hdface/internal/hv"
)

// Stats counts encoding work for the hardware model.
type Stats struct {
	Encodes int64
	MACs    int64 // multiply-accumulate ops (projection encoder)
	BitOps  int64 // word-level bit operations (ID-level encoder)
}

// IDLevel implements the classic ID-level HDC encoder: every feature index
// gets a random ID hypervector, every quantisation level gets a level
// hypervector built by progressively flipping bits so nearby levels stay
// similar, and the encoding is the majority bundle of ID XOR level pairs.
type IDLevel struct {
	d, nFeat, nLevels int
	lo, hi            float64
	ids               []*hv.Vector
	levels            []*hv.Vector
	tie               *hv.Vector
	Stats             Stats
}

// NewIDLevel builds an ID-level encoder for nFeat features quantised into
// nLevels levels over [lo, hi].
func NewIDLevel(d, nFeat, nLevels int, lo, hi float64, seed uint64) *IDLevel {
	if d <= 0 || nFeat <= 0 || nLevels < 2 || hi <= lo {
		panic("encoder: invalid IDLevel parameters")
	}
	r := hv.NewRNG(seed)
	e := &IDLevel{d: d, nFeat: nFeat, nLevels: nLevels, lo: lo, hi: hi}
	e.ids = make([]*hv.Vector, nFeat)
	for i := range e.ids {
		e.ids[i] = hv.NewRand(r, d)
	}
	// Level chain: start random; each next level flips a disjoint random
	// slice of ~d/(2*(nLevels-1)) positions, so level 0 and level max are
	// nearly orthogonal and adjacent levels nearly identical.
	e.levels = make([]*hv.Vector, nLevels)
	e.levels[0] = hv.NewRand(r, d)
	perm := r.Perm(d)
	flipPer := d / (2 * (nLevels - 1))
	pos := 0
	for l := 1; l < nLevels; l++ {
		v := e.levels[l-1].Clone()
		for i := 0; i < flipPer && pos < len(perm); i++ {
			p := perm[pos]
			pos++
			v.SetBit(p, -v.Bit(p))
		}
		e.levels[l] = v
	}
	e.tie = hv.NewRand(r, d)
	return e
}

// quantise maps a feature value to its level index.
func (e *IDLevel) quantise(v float64) int {
	t := (v - e.lo) / (e.hi - e.lo)
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	l := int(t * float64(e.nLevels-1))
	if l >= e.nLevels {
		l = e.nLevels - 1
	}
	return l
}

// Encode bundles ID_i XOR Level(x_i) over all features.
func (e *IDLevel) Encode(features []float64) *hv.Vector {
	if len(features) != e.nFeat {
		panic(fmt.Sprintf("encoder: got %d features, want %d", len(features), e.nFeat))
	}
	e.Stats.Encodes++
	acc := hv.NewAccumulator(e.d)
	bound := hv.New(e.d)
	words := int64((e.d + 63) / 64)
	for i, x := range features {
		bound.Xor(e.ids[i], e.levels[e.quantise(x)])
		acc.Add(bound)
		e.Stats.BitOps += words
	}
	out, _ := acc.Sign(e.tie)
	return out
}

// Projection implements a nonlinear random-projection encoder: output bit i
// is the sign of a random Gaussian projection of the features plus a random
// phase, the "non-linear encoder" configuration of the paper's Figure 4.
type Projection struct {
	d, nFeat int
	w        []float32 // d rows of nFeat weights
	b        []float32
	Stats    Stats
}

// NewProjection builds a projection encoder with N(0, 1) weights and
// uniform biases.
func NewProjection(d, nFeat int, seed uint64) *Projection {
	if d <= 0 || nFeat <= 0 {
		panic("encoder: invalid Projection parameters")
	}
	r := hv.NewRNG(seed)
	e := &Projection{d: d, nFeat: nFeat}
	e.w = make([]float32, d*nFeat)
	for i := range e.w {
		e.w[i] = float32(r.NormFloat64())
	}
	e.b = make([]float32, d)
	for i := range e.b {
		e.b[i] = float32(r.NormFloat64() * 0.1)
	}
	return e
}

// D returns the output dimensionality.
func (e *Projection) D() int { return e.d }

// Features returns the expected feature count.
func (e *Projection) Features() int { return e.nFeat }

// Encode computes sign(Wx + b) as a binary hypervector.
func (e *Projection) Encode(features []float64) *hv.Vector {
	if len(features) != e.nFeat {
		panic(fmt.Sprintf("encoder: got %d features, want %d", len(features), e.nFeat))
	}
	// One Projection is shared across feature-extraction workers (weights
	// and biases are read-only after construction), so the counters must be
	// atomic.
	atomic.AddInt64(&e.Stats.Encodes, 1)
	atomic.AddInt64(&e.Stats.MACs, int64(e.d)*int64(e.nFeat))
	out := hv.New(e.d)
	for i := 0; i < e.d; i++ {
		row := e.w[i*e.nFeat : (i+1)*e.nFeat]
		s := float64(e.b[i])
		for j, x := range features {
			s += float64(row[j]) * x
		}
		if s > 0 {
			out.SetBit(i, 1)
		}
	}
	return out
}
