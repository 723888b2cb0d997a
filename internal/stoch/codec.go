package stoch

import (
	"fmt"
	"math"

	"hdface/internal/hv"
	"hdface/internal/obs"
)

// Per-primitive observability counters, mirroring the Stats fields so the
// cost of stochastic arithmetic is attributable per primitive across all
// live codecs (Stats is per-codec and harvested; these are process-global
// and live). They record nothing unless obs is enabled.
var (
	obsConstructs = obs.NewCounter(`hdface_stoch_ops_total{op="construct"}`, "stochastic value constructions")
	obsAverages   = obs.NewCounter(`hdface_stoch_ops_total{op="avg"}`, "stochastic weighted averages (incl. add/sub)")
	obsMuls       = obs.NewCounter(`hdface_stoch_ops_total{op="mul"}`, "stochastic multiplications")
	obsSqrts      = obs.NewCounter(`hdface_stoch_ops_total{op="sqrt"}`, "stochastic square roots")
	obsDivs       = obs.NewCounter(`hdface_stoch_ops_total{op="div"}`, "stochastic divisions")
	obsCompares   = obs.NewCounter(`hdface_stoch_ops_total{op="compare"}`, "stochastic comparisons")
	obsDecodes    = obs.NewCounter(`hdface_stoch_ops_total{op="decode"}`, "hypervector decodes")
	obsDecorrs    = obs.NewCounter(`hdface_stoch_ops_total{op="decorr"}`, "decorrelations")
	obsWords      = obs.NewCounter("hdface_stoch_kernel_words_total", "64-bit words through bitwise kernels")
)

// Stats counts the primitive operations a Codec has executed. The hardware
// simulator converts these counts into cycle and energy estimates, so every
// arithmetic entry point increments its counter and the word-level fields
// record the true data volume processed.
type Stats struct {
	Constructs int64 // full Bernoulli constructions
	Averages   int64 // weighted averages (incl. add/sub)
	Muls       int64
	Sqrts      int64
	Divs       int64
	Compares   int64
	Decodes    int64
	Decorrs    int64

	XorWords    int64 // words through XOR kernels
	SelectWords int64 // words through select kernels
	MaskWords   int64 // random words drawn for Bernoulli masks
	PopWords    int64 // words through popcount (similarity)
	PermWords   int64 // words through permutation
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Constructs += o.Constructs
	s.Averages += o.Averages
	s.Muls += o.Muls
	s.Sqrts += o.Sqrts
	s.Divs += o.Divs
	s.Compares += o.Compares
	s.Decodes += o.Decodes
	s.Decorrs += o.Decorrs
	s.XorWords += o.XorWords
	s.SelectWords += o.SelectWords
	s.MaskWords += o.MaskWords
	s.PopWords += o.PopWords
	s.PermWords += o.PermWords
}

// TotalWords returns all words processed by bitwise kernels.
func (s *Stats) TotalWords() int64 {
	return s.XorWords + s.SelectWords + s.MaskWords + s.PopWords + s.PermWords
}

// Codec constructs, combines and decodes stochastic hypervector numbers
// against a fixed random basis V1. It is not safe for concurrent use; derive
// per-goroutine codecs with Fork.
type Codec struct {
	d        int
	rng      *hv.RNG
	one      *hv.Vector // V_1
	minusOne *hv.Vector // V_-1 = ^V_1
	margin   float64    // comparison margin in value units
	sqrtIter int
	permStep int // rotation stride for decorrelation, coprime-ish with D

	Stats Stats

	// scratch buffers to keep the hot path allocation-free
	mask, tmpA, tmpB *hv.Vector
}

// Option configures a Codec.
type Option func(*Codec)

// WithSqrtIterations sets the binary-search depth for Sqrt (default 10).
func WithSqrtIterations(n int) Option {
	return func(c *Codec) { c.sqrtIter = n }
}

// NewCodec returns a codec of dimensionality d seeded by seed.
func NewCodec(d int, seed uint64, opts ...Option) *Codec {
	if d <= 0 {
		panic("stoch: dimensionality must be positive")
	}
	rng := hv.NewRNG(seed)
	c := &Codec{
		d:        d,
		rng:      rng,
		one:      hv.NewRand(rng, d),
		margin:   2 / math.Sqrt(float64(d)),
		sqrtIter: 10,
		permStep: 0,
		mask:     hv.New(d),
		tmpA:     hv.New(d),
		tmpB:     hv.New(d),
	}
	c.minusOne = c.one.Neg()
	// A stride that is odd and far from 0 and D/2 decorrelates quickly.
	c.permStep = d/3 | 1
	for _, o := range opts {
		o(c)
	}
	return c
}

// Fork derives an independent codec sharing the same basis V1, so values
// constructed by parent and child are interoperable. Each fork has its own
// RNG stream and scratch space, making it safe to use from another
// goroutine.
func (c *Codec) Fork() *Codec {
	f := &Codec{
		d:        c.d,
		rng:      c.rng.Split(),
		one:      c.one,
		minusOne: c.minusOne,
		margin:   c.margin,
		sqrtIter: c.sqrtIter,
		permStep: c.permStep,
		mask:     hv.New(c.d),
		tmpA:     hv.New(c.d),
		tmpB:     hv.New(c.d),
	}
	return f
}

// Reseed resets the codec's private RNG to the stream defined by seed. The
// basis and every constructed value stay valid; only the randomness of
// subsequent stochastic operations changes. Reseeding lets a unit of work
// (a pyramid-level cell row, a detection window) be a pure function of its
// position, so parallel sweeps produce identical results regardless of
// goroutine scheduling.
func (c *Codec) Reseed(seed uint64) { c.rng.Reseed(seed) }

// D returns the codec dimensionality.
func (c *Codec) D() int { return c.d }

// One returns the basis hypervector V1 (do not mutate).
func (c *Codec) One() *hv.Vector { return c.one }

// MinusOne returns V_{-1} (do not mutate).
func (c *Codec) MinusOne() *hv.Vector { return c.minusOne }

// clamp keeps a in [-1, 1].
func clamp(a float64) float64 {
	switch {
	case a < -1:
		return -1
	case a > 1:
		return 1
	}
	return a
}

// Construct returns a fresh hypervector representing a in [-1, 1]. Values
// outside the range are clamped, matching the paper's normalisation step.
func (c *Codec) Construct(a float64) *hv.Vector {
	a = clamp(a)
	c.Stats.Constructs++
	c.Stats.MaskWords += int64((c.d + 63) / 64)
	obsConstructs.Inc()
	obsWords.Add(2 * int64((c.d+63)/64))
	// Select from V1 with probability (1+a)/2, else from -V1. Selecting
	// from -V1 means flipping, so the flip mask is Bernoulli((1-a)/2).
	out := hv.NewRandBiased(c.rng, c.d, (1-a)/2)
	out.Xor(out, c.one)
	c.Stats.XorWords += int64((c.d + 63) / 64)
	return out
}

// Decode returns the value represented by v: delta(v, V1).
func (c *Codec) Decode(v *hv.Vector) float64 {
	c.Stats.Decodes++
	c.Stats.PopWords += int64((c.d + 63) / 64)
	obsDecodes.Inc()
	obsWords.Add(int64((c.d + 63) / 64))
	return v.Cos(c.one)
}

// Neg returns a fresh hypervector for -a given Va.
func (c *Codec) Neg(v *hv.Vector) *hv.Vector {
	c.Stats.XorWords += int64((c.d + 63) / 64)
	obsWords.Add(int64((c.d + 63) / 64))
	return v.Neg()
}

// WeightedAvg returns a fresh hypervector representing p*a + (1-p)*b given
// Va and Vb. p must be in [0, 1].
func (c *Codec) WeightedAvg(p float64, a, b *hv.Vector) *hv.Vector {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stoch: weight %v outside [0,1]", p))
	}
	c.Stats.Averages++
	w := int64((c.d + 63) / 64)
	c.Stats.MaskWords += w
	c.Stats.SelectWords += w
	obsAverages.Inc()
	obsWords.Add(2 * w)
	c.mask.RandBiased(c.rng, p)
	return hv.New(c.d).Select(c.mask, a, b)
}

// Add returns V_{(a+b)/2} — the scaled stochastic sum.
func (c *Codec) Add(a, b *hv.Vector) *hv.Vector {
	return c.WeightedAvg(0.5, a, b)
}

// Sub returns V_{(a-b)/2} — the scaled stochastic difference.
func (c *Codec) Sub(a, b *hv.Vector) *hv.Vector {
	c.Stats.XorWords += int64((c.d + 63) / 64)
	obsWords.Add(int64((c.d + 63) / 64))
	c.tmpA.Not(b)
	return c.WeightedAvg(0.5, a, c.tmpA)
}

// Mul returns V_{ab} = V1 ^ Va ^ Vb. The operands must carry independent
// flip masks; use Decorrelate when reusing a vector (e.g. squaring).
func (c *Codec) Mul(a, b *hv.Vector) *hv.Vector {
	c.Stats.Muls++
	c.Stats.XorWords += 2 * int64((c.d+63)/64)
	obsMuls.Inc()
	obsWords.Add(2 * int64((c.d+63)/64))
	return hv.New(c.d).Xor3(c.one, a, b)
}

// Decorrelate returns a fresh representation of the same value with a
// rotated flip mask: V1 ^ rho_k(V ^ V1). The decoded value is preserved
// exactly (mask popcount is rotation-invariant) while the bit pattern is
// pairwise decorrelated from v.
func (c *Codec) Decorrelate(v *hv.Vector) *hv.Vector {
	c.Stats.Decorrs++
	w := int64((c.d + 63) / 64)
	c.Stats.XorWords += 2 * w
	c.Stats.PermWords += w
	obsDecorrs.Inc()
	obsWords.Add(3 * w)
	c.tmpA.Xor(v, c.one)
	out := hv.New(c.d).Permute(c.tmpA, c.permStep)
	return out.Xor(out, c.one)
}

// DecorrelateShift is Decorrelate with a caller-chosen rotation k, letting
// callers that fetch the same cached vector many times (the pixel-level
// table of the hyperspace HOG) draw a fresh shift per fetch so fetches stay
// pairwise decorrelated. k = 0 returns a plain clone.
func (c *Codec) DecorrelateShift(v *hv.Vector, k int) *hv.Vector {
	if k%c.d == 0 {
		return v.Clone()
	}
	c.Stats.Decorrs++
	w := int64((c.d + 63) / 64)
	c.Stats.XorWords += 2 * w
	c.Stats.PermWords += w
	obsDecorrs.Inc()
	obsWords.Add(3 * w)
	c.tmpA.Xor(v, c.one)
	out := hv.New(c.d).Permute(c.tmpA, k)
	return out.Xor(out, c.one)
}

// Square returns V_{a^2}, decorrelating the operand against itself.
func (c *Codec) Square(v *hv.Vector) *hv.Vector {
	return c.Mul(v, c.Decorrelate(v))
}

// Scale returns V_{r*a} for a known constant r in [-1, 1], by multiplying
// with a freshly constructed V_r (fresh masks keep operands independent).
func (c *Codec) Scale(r float64, v *hv.Vector) *hv.Vector {
	return c.Mul(c.Construct(r), v)
}

// Compare reports the ordering of the represented values: +1 if a > b,
// -1 if a < b, 0 when they are equal within the statistical margin. It
// stays in the HD domain: it decodes the sign of the scaled difference
// 0.5a (+) 0.5(-b).
func (c *Codec) Compare(a, b *hv.Vector) int {
	c.Stats.Compares++
	obsCompares.Inc()
	diff := c.Sub(a, b) // represents (a-b)/2
	v := c.Decode(diff)
	switch {
	case v > c.margin/2: // margin on (a-b)/2 scale
		return 1
	case v < -c.margin/2:
		return -1
	}
	return 0
}

// Sign returns +1, -1 or 0 for the represented value of v, using the
// statistical margin around zero.
func (c *Codec) Sign(v *hv.Vector) int {
	d := c.Decode(v)
	switch {
	case d > c.margin:
		return 1
	case d < -c.margin:
		return -1
	}
	return 0
}

// Abs returns a hypervector for |a| given Va: v itself when the decoded
// sign is non-negative, otherwise its negation.
func (c *Codec) Abs(v *hv.Vector) *hv.Vector {
	if c.Sign(v) < 0 {
		return c.Neg(v)
	}
	return v.Clone()
}

// Sqrt returns V_{sqrt(a)} for a represented non-negative a, via the
// paper's hypervector binary search on [0, 1]. Negative represented values
// (within noise of zero) yield V_0.
func (c *Codec) Sqrt(v *hv.Vector) *hv.Vector {
	c.Stats.Sqrts++
	obsSqrts.Inc()
	low := c.Construct(0)
	high := c.one.Clone()
	var mid *hv.Vector
	for i := 0; i < c.sqrtIter; i++ {
		mid = c.WeightedAvg(0.5, low, high)
		sq := c.Square(mid)
		switch c.Compare(sq, v) {
		case 1:
			high = mid
		case -1:
			low = mid
		default:
			return mid
		}
	}
	return c.WeightedAvg(0.5, low, high)
}

// divIterations is the binary-search depth of Div.
const divIterations = 10

// Div returns V_{a/b} for represented values with |a| <= |b| and b != 0
// (the quotient must fit in [-1, 1]); the binary search finds m minimising
// |m*b - a|. Signs are handled by searching on magnitudes.
func (c *Codec) Div(a, b *hv.Vector) *hv.Vector {
	c.Stats.Divs++
	obsDivs.Inc()
	sa, sb := c.Sign(a), c.Sign(b)
	if sb == 0 {
		// Division by (statistical) zero: saturate to the sign of a.
		return c.Construct(float64(sa))
	}
	absA := c.Abs(a)
	absB := c.Abs(b)
	low := c.Construct(0)
	high := c.one.Clone()
	mid := c.WeightedAvg(0.5, low, high)
	for i := 0; i < divIterations; i++ {
		prod := c.Mul(mid, c.Decorrelate(absB))
		cmp := c.Compare(prod, absA)
		if cmp == 0 {
			break
		}
		if cmp > 0 {
			high = mid
		} else {
			low = mid
		}
		mid = c.WeightedAvg(0.5, low, high)
	}
	if sa*sb < 0 {
		return c.Neg(mid)
	}
	return mid
}
