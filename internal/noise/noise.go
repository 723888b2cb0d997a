// Package noise implements the fault-injection machinery behind the
// paper's robustness study (Table 2 and the Section 2 motivation): random
// bit errors applied to packed hypervectors, to quantised DNN weight codes
// and to IEEE-754 float feature words. Error rate r means each bit of the
// target representation flips independently with probability r.
package noise

import (
	"math"

	"hdface/internal/hv"
	"hdface/internal/nn"
)

// Injector draws reproducible fault patterns.
type Injector struct {
	rng  *hv.RNG
	seed uint64
}

// New returns an injector seeded by seed.
func New(seed uint64) *Injector {
	return &Injector{rng: hv.NewRNG(seed ^ 0xfa017), seed: seed}
}

// FlipVector flips each bit of v independently with probability rate and
// returns the number of flips. The pattern comes from the injector's shared
// sequential stream; use FlipVectorAt when the pattern must not depend on
// what was corrupted before.
func (in *Injector) FlipVector(v *hv.Vector, rate float64) int {
	if rate <= 0 {
		return 0
	}
	mask := hv.NewRandBiased(in.rng, v.D(), rate)
	flips := mask.OnesCount()
	v.Xor(v, mask)
	return flips
}

// FlipVectorAt flips each bit of v independently with probability rate,
// drawing the fault pattern from a substream keyed on (injector seed, idx)
// via hv.Mix64. The pattern of index idx is a pure function of the seed —
// independent of injection order, of how many vectors were corrupted before
// it, and of the injector's shared stream — which is what lets the chaos
// harness corrupt the same logical memory cell identically across runs.
func (in *Injector) FlipVectorAt(v *hv.Vector, idx uint64, rate float64) int {
	if rate <= 0 {
		return 0
	}
	r := hv.NewRNG(hv.Mix64(in.seed^0xfa017, idx))
	mask := hv.NewRandBiased(r, v.D(), rate)
	flips := mask.OnesCount()
	v.Xor(v, mask)
	return flips
}

// FlipVectors applies FlipVectorAt to every vector, keyed by slice index:
// vector i receives the same fault pattern whether the whole batch or just
// vector i is corrupted.
func (in *Injector) FlipVectors(vs []*hv.Vector, rate float64) int {
	total := 0
	for i, v := range vs {
		total += in.FlipVectorAt(v, uint64(i), rate)
	}
	return total
}

// FlipQuantized flips each weight bit of the quantised network with
// probability rate and re-syncs the inference weights. Returns the flip
// count.
func (in *Injector) FlipQuantized(q *nn.Quantized, rate float64) int {
	if rate <= 0 {
		return 0
	}
	flips := 0
	for t, codes := range q.Codes() {
		for i := range codes {
			for b := 0; b < q.Bits; b++ {
				if in.rng.Float64() < rate {
					q.FlipBit(t, i, b)
					flips++
				}
			}
		}
	}
	q.Sync()
	return flips
}

// FlipFloats flips each of the 64 bits of every float64 independently with
// probability rate — the "feature extraction on original data
// representation" failure mode of the paper's Section 2 motivation. NaN
// and Inf results are squashed to 0 (a real system would fault or saturate;
// squashing is the charitable choice for the baseline).
func (in *Injector) FlipFloats(xs []float64, rate float64) int {
	if rate <= 0 {
		return 0
	}
	flips := 0
	for i, x := range xs {
		bits := math.Float64bits(x)
		for b := 0; b < 64; b++ {
			if in.rng.Float64() < rate {
				bits ^= 1 << uint(b)
				flips++
			}
		}
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		xs[i] = v
	}
	return flips
}

// FlipFixed8 flips bits in an 8-bit fixed-point rendering of the values:
// each value is quantised to lo + code*(hi-lo)/255, each of the 8 code bits
// flips independently with probability rate, and the value is dequantised
// back. This models bit errors on the feature memories of embedded
// pipelines, which store normalised feature maps fixed-point rather than as
// IEEE-754 words (where a single exponent flip is catastrophic).
func (in *Injector) FlipFixed8(xs []float64, lo, hi float64, rate float64) int {
	if rate <= 0 || hi <= lo {
		return 0
	}
	flips := 0
	scale := (hi - lo) / 255
	for i, x := range xs {
		t := (x - lo) / (hi - lo)
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
		code := uint8(t*255 + 0.5)
		for b := 0; b < 8; b++ {
			if in.rng.Float64() < rate {
				code ^= 1 << uint(b)
				flips++
			}
		}
		xs[i] = lo + float64(code)*scale
	}
	return flips
}

// FlipImagePixels flips each bit of each 8-bit pixel with probability rate
// — models faults on the raw sensor data path.
func (in *Injector) FlipImagePixels(pix []uint8, rate float64) int {
	if rate <= 0 {
		return 0
	}
	flips := 0
	for i, p := range pix {
		for b := 0; b < 8; b++ {
			if in.rng.Float64() < rate {
				p ^= 1 << uint(b)
				flips++
			}
		}
		pix[i] = p
	}
	return flips
}
