// Package hv implements bit-packed binary hypervectors and the word-parallel
// kernels HDFace builds on: similarity, permutation, majority bundling,
// Bernoulli-mask component selection, and integer/float accumulators.
//
// A hypervector is a point in {-1,+1}^D stored as D sign bits packed into
// uint64 words: bit 1 encodes +1, bit 0 encodes -1. All element-wise
// operations therefore process 64 dimensions per machine word, which is the
// source of HDFace's efficiency claim over float feature pipelines.
package hv

import (
	"errors"
	"fmt"
	"math/bits"
)

// Vector is a D-dimensional binary hypervector. The zero value is an empty
// (D = 0) vector; use New or the RNG-based constructors for usable vectors.
//
// Dimensions beyond D in the final word are kept at zero by every operation
// so that popcount-based kernels need no masking on the hot path.
type Vector struct {
	d     int
	words []uint64
}

// wordsFor returns the number of uint64 words needed to hold d bits.
func wordsFor(d int) int { return (d + 63) / 64 }

// New returns an all -1 (all bits zero) hypervector of dimensionality d.
func New(d int) *Vector {
	if d <= 0 {
		panic("hv: dimensionality must be positive")
	}
	return &Vector{d: d, words: make([]uint64, wordsFor(d))}
}

// FromWords wraps the given words as a Vector of dimension d. The slice is
// used directly (not copied); tail bits past d are cleared.
func FromWords(d int, words []uint64) (*Vector, error) {
	if d <= 0 {
		return nil, errors.New("hv: dimensionality must be positive")
	}
	if len(words) != wordsFor(d) {
		return nil, fmt.Errorf("hv: want %d words for d=%d, got %d", wordsFor(d), d, len(words))
	}
	v := &Vector{d: d, words: words}
	v.maskTail()
	return v, nil
}

// maskTail clears bits at positions >= d in the last word.
func (v *Vector) maskTail() {
	if r := uint(v.d % 64); r != 0 {
		v.words[len(v.words)-1] &= (1 << r) - 1
	}
}

// D returns the dimensionality.
func (v *Vector) D() int { return v.d }

// Words exposes the packed words for read-only iteration by kernels in
// sibling packages (noise injection, serialisation). Mutating the returned
// slice mutates the vector.
func (v *Vector) Words() []uint64 { return v.words }

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	w := make([]uint64, len(v.words))
	copy(w, v.words)
	return &Vector{d: v.d, words: w}
}

// Bit returns the element at dimension i as +1 or -1.
func (v *Vector) Bit(i int) int {
	if i < 0 || i >= v.d {
		panic("hv: dimension out of range")
	}
	if v.words[i/64]>>(uint(i)%64)&1 == 1 {
		return 1
	}
	return -1
}

// SetBit sets dimension i to +1 (sign > 0) or -1.
func (v *Vector) SetBit(i int, sign int) {
	if i < 0 || i >= v.d {
		panic("hv: dimension out of range")
	}
	mask := uint64(1) << (uint(i) % 64)
	if sign > 0 {
		v.words[i/64] |= mask
	} else {
		v.words[i/64] &^= mask
	}
}

// OnesCount returns the number of +1 components.
func (v *Vector) OnesCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

func (v *Vector) mustMatch(o *Vector) {
	if v.d != o.d {
		panic(fmt.Sprintf("hv: dimensionality mismatch %d vs %d", v.d, o.d))
	}
}

// Rand fills v with uniform random signs.
func (v *Vector) Rand(r *RNG) *Vector {
	for i := range v.words {
		v.words[i] = r.Uint64()
	}
	v.maskTail()
	return v
}

// NewRand returns a fresh uniform random hypervector.
func NewRand(r *RNG, d int) *Vector { return New(d).Rand(r) }

// RandBiased fills v with independent Bernoulli(p) bits: each component is
// +1 with probability p. Used for biased basis vectors and Bernoulli masks.
func (v *Vector) RandBiased(r *RNG, p float64) *Vector {
	fillBernoulli(v.words, r, p)
	v.maskTail()
	return v
}

// NewRandBiased returns a fresh Bernoulli(p) hypervector.
func NewRandBiased(r *RNG, d int, p float64) *Vector {
	return New(d).RandBiased(r, p)
}

// Xor sets v = a ^ b elementwise (component product in ±1 semantics when
// one operand is interpreted as a flip mask) and returns v. v may alias
// a or b.
func (v *Vector) Xor(a, b *Vector) *Vector {
	v.mustMatch(a)
	v.mustMatch(b)
	for i := range v.words {
		v.words[i] = a.words[i] ^ b.words[i]
	}
	return v
}

// Xor3 sets v = a ^ b ^ c, the three-way XOR used by stochastic
// multiplication (V_ab = V_1 ^ V_a ^ V_b).
func (v *Vector) Xor3(a, b, c *Vector) *Vector {
	v.mustMatch(a)
	v.mustMatch(b)
	v.mustMatch(c)
	for i := range v.words {
		v.words[i] = a.words[i] ^ b.words[i] ^ c.words[i]
	}
	return v
}

// Not sets v = ^a, i.e. the ±1 negation -a, and returns v. v may alias a.
func (v *Vector) Not(a *Vector) *Vector {
	v.mustMatch(a)
	for i := range v.words {
		v.words[i] = ^a.words[i]
	}
	v.maskTail()
	return v
}

// Neg returns a fresh copy of -v.
func (v *Vector) Neg() *Vector { return New(v.d).Not(v) }

// Select sets v[i] = a[i] where mask bit i is 1, else b[i]. This is the
// component-selection primitive behind the stochastic weighted average:
// with a Bernoulli(p) mask, v represents p*a (+) (1-p)*b.
func (v *Vector) Select(mask, a, b *Vector) *Vector {
	v.mustMatch(mask)
	v.mustMatch(a)
	v.mustMatch(b)
	for i := range v.words {
		m := mask.words[i]
		v.words[i] = a.words[i]&m | b.words[i]&^m
	}
	return v
}

// Permute sets v to a rotated left by k dimensions (the HDC permutation
// operation rho) and returns v. v must not alias a. k may be any integer;
// it is reduced modulo D.
func (v *Vector) Permute(a *Vector, k int) *Vector {
	v.mustMatch(a)
	if v == a {
		panic("hv: Permute destination must not alias source")
	}
	d := v.d
	k %= d
	if k < 0 {
		k += d
	}
	for i := range v.words {
		v.words[i] = 0
	}
	// A bit at source dimension i moves to dimension (i + k) % d.
	wordShift := k / 64
	bitShift := uint(k % 64)
	n := len(a.words)
	for i, w := range a.words {
		if w == 0 {
			continue
		}
		lo := w << bitShift
		j := (i + wordShift) % n
		v.words[j] |= lo
		if bitShift != 0 {
			hi := w >> (64 - bitShift)
			v.words[(j+1)%n] |= hi
		}
	}
	// Wrap bits that spilled past dimension d back to the front. For the
	// common case d % 64 == 0 the modular word arithmetic above already
	// wrapped exactly; otherwise fix up the tail.
	if v.d%64 != 0 {
		// Rebuild correctly but slowly for non-word-aligned D; correctness
		// over speed since production dimensionalities are multiples of 64.
		tmp := New(d)
		for i := 0; i < d; i++ {
			if a.words[i/64]>>(uint(i)%64)&1 == 1 {
				j := i + k
				if j >= d {
					j -= d
				}
				tmp.words[j/64] |= 1 << (uint(j) % 64)
			}
		}
		copy(v.words, tmp.words)
	}
	v.maskTail()
	return v
}

// Hamming returns the number of dimensions at which v and o differ.
func (v *Vector) Hamming(o *Vector) int {
	v.mustMatch(o)
	n := 0
	for i := range v.words {
		n += bits.OnesCount64(v.words[i] ^ o.words[i])
	}
	return n
}

// Dot returns the ±1 dot product: D - 2*Hamming.
func (v *Vector) Dot(o *Vector) int {
	return v.d - 2*v.Hamming(o)
}

// Cos returns the normalised similarity delta(v, o) = dot/D in [-1, 1].
// For binary ±1 hypervectors this equals cosine similarity.
func (v *Vector) Cos(o *Vector) float64 {
	return float64(v.Dot(o)) / float64(v.d)
}

// HammingSim returns 1 - Hamming/D in [0, 1].
func (v *Vector) HammingSim(o *Vector) float64 {
	return 1 - float64(v.Hamming(o))/float64(v.d)
}

// Equal reports whether v and o have identical dimensionality and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.d != o.d {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// String renders a short diagnostic form.
func (v *Vector) String() string {
	ones := v.OnesCount()
	return fmt.Sprintf("hv.Vector{D:%d, +1s:%d (%.3f)}", v.d, ones, float64(ones)/float64(v.d))
}

// fillBernoulli fills words with independent Bernoulli(p) bits using the
// binary-expansion comparison method: conceptually each bit position gets a
// uniform U in [0,1) built from `depth` random words, and the output bit is
// U < p. Cost is depth random words per output word, fully word-parallel.
func fillBernoulli(words []uint64, r *RNG, p float64) {
	switch {
	case p <= 0:
		for i := range words {
			words[i] = 0
		}
		return
	case p >= 1:
		for i := range words {
			words[i] = ^uint64(0)
		}
		return
	case p == 0.5:
		for i := range words {
			words[i] = r.Uint64()
		}
		return
	}
	const depth = 24 // p resolved to 2^-24; sampling error at D=10k dominates
	// Precompute p's binary expansion once.
	var pb [depth]bool
	f := p
	for i := 0; i < depth; i++ {
		f *= 2
		if f >= 1 {
			pb[i] = true
			f -= 1
		}
	}
	for i := range words {
		var res uint64   // decided 1-bits
		eq := ^uint64(0) // positions still equal to p's prefix
		for k := 0; k < depth; k++ {
			rw := r.Uint64()
			if pb[k] {
				// U bit 0 where p bit 1 => U < p decided.
				res |= eq &^ rw
				eq &= rw
			} else {
				// U bit 1 where p bit 0 => U > p decided (stays 0).
				eq &^= rw
			}
			if eq == 0 {
				break
			}
		}
		words[i] = res
	}
}
