// Package hdc implements HDFace's adaptive hyperdimensional classifier
// (paper Section 5, Figure 3). Training memorises one class hypervector per
// class from already-hyperdimensional features (either the hyperspace HOG
// output or an encoded original-space feature), using a single bootstrap
// pass that skips redundant memorisation followed by adaptive
// mistake-weighted refinement epochs in the style of OnlineHD. Inference is
// a similarity search between the query hypervector and the class
// hypervectors.
package hdc

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"hdface/internal/hv"
	"hdface/internal/obs"
)

// Observability counters: live, process-global mirrors of the per-model
// Stats fields, so training and inference work is visible while a run is
// still in flight. They record nothing unless obs is enabled.
var (
	obsSims      = obs.NewCounter("hdface_hdc_similarities_total", "query/class similarity evaluations")
	obsBootAdds  = obs.NewCounter("hdface_hdc_bootstrap_adds_total", "bootstrap class-vector accumulations")
	obsBootSkips = obs.NewCounter("hdface_hdc_bootstrap_skips_total", "bootstrap samples skipped as redundant")
	obsAdaptive  = obs.NewCounter("hdface_hdc_adaptive_updates_total", "adaptive (retrain) class-vector updates")
	obsEpochs    = obs.NewCounter("hdface_hdc_epochs_total", "adaptive refinement epochs run")
)

// TrainOpts configures Train.
type TrainOpts struct {
	// Epochs is the number of adaptive refinement passes after the
	// bootstrap pass (default 20).
	Epochs int
	// LR scales adaptive updates (default 1).
	LR float64
	// Margin, when positive, triggers reinforcement updates on correct
	// predictions whose similarity lead over the runner-up is below it.
	// Disabled by default: on the evaluation workloads mistake-driven
	// training alone generalises slightly better (see the hdc tests).
	Margin float64
	// BootstrapMargin skips bootstrap memorisation of samples the model
	// already classifies correctly with at least this similarity margin,
	// preventing class-vector saturation (default 0.05).
	BootstrapMargin float64
	// Seed drives tie-breaking randomness.
	Seed uint64
}

func (o TrainOpts) withDefaults() TrainOpts {
	if o.Epochs == 0 {
		o.Epochs = 20
	}
	if o.LR == 0 {
		o.LR = 1
	}
	if o.BootstrapMargin == 0 {
		o.BootstrapMargin = 0.05
	}
	return o
}

// Stats records training-time work for the hardware model.
type Stats struct {
	BootstrapAdds  int64 // class-vector accumulations in the bootstrap pass
	BootstrapSkips int64 // samples skipped as redundant
	AdaptiveSteps  int64 // mistake-driven double updates
	Similarities   int64 // query/class similarity evaluations
	Epochs         int64
}

// Model is a trained HDC classifier: float class accumulators for adaptive
// training and cosine inference, plus an optional binarised form for
// Hamming inference on bit-serial hardware.
type Model struct {
	D       int
	K       int
	Classes [][]float64 // K x D accumulators
	Bin     []*hv.Vector
	Stats   Stats
}

// NewModel returns an empty model with k classes of dimensionality d.
func NewModel(d, k int) *Model {
	if d <= 0 || k < 2 {
		panic("hdc: need d > 0 and k >= 2")
	}
	m := &Model{D: d, K: k, Classes: make([][]float64, k)}
	for i := range m.Classes {
		m.Classes[i] = make([]float64, d)
	}
	return m
}

// Clone returns a deep copy of the model. It is safe to call concurrently
// with inference on the receiver (inference only reads the accumulators and
// bumps the atomic work counters, which Clone loads atomically); it is NOT
// safe concurrently with training updates on the receiver. Cloning is how
// the online-learning subsystem derives a mutable candidate from the
// immutable live model of a serving daemon.
func (m *Model) Clone() *Model {
	c := &Model{D: m.D, K: m.K, Classes: make([][]float64, m.K)}
	for i, acc := range m.Classes {
		c.Classes[i] = append([]float64(nil), acc...)
	}
	if m.Bin != nil {
		c.Bin = make([]*hv.Vector, len(m.Bin))
		for i, v := range m.Bin {
			c.Bin[i] = v.Clone()
		}
	}
	c.Stats = Stats{
		BootstrapAdds:  atomic.LoadInt64(&m.Stats.BootstrapAdds),
		BootstrapSkips: atomic.LoadInt64(&m.Stats.BootstrapSkips),
		AdaptiveSteps:  atomic.LoadInt64(&m.Stats.AdaptiveSteps),
		Similarities:   atomic.LoadInt64(&m.Stats.Similarities),
		Epochs:         atomic.LoadInt64(&m.Stats.Epochs),
	}
	return c
}

// addScaled adds s * (+-1 bits of v) into class c's accumulator.
func (m *Model) addScaled(c int, v *hv.Vector, s float64) {
	acc := m.Classes[c]
	words := v.Words()
	for i := 0; i < m.D; i++ {
		if words[i/64]>>(uint(i)%64)&1 == 1 {
			acc[i] += s
		} else {
			acc[i] -= s
		}
	}
}

// cos returns cosine similarity between class c and binary query v.
func (m *Model) cos(c int, v *hv.Vector) float64 {
	acc := m.Classes[c]
	words := v.Words()
	var dot, norm float64
	for i := 0; i < m.D; i++ {
		a := acc[i]
		norm += a * a
		if words[i/64]>>(uint(i)%64)&1 == 1 {
			dot += a
		} else {
			dot -= a
		}
	}
	if norm == 0 {
		return 0
	}
	return dot / (math.Sqrt(norm) * math.Sqrt(float64(m.D)))
}

// Scores returns the cosine similarity of v to every class.
func (m *Model) Scores(v *hv.Vector) []float64 {
	if v.D() != m.D {
		panic(fmt.Sprintf("hdc: query dimension %d, model %d", v.D(), m.D))
	}
	out := make([]float64, m.K)
	for c := range out {
		out[c] = m.cos(c, v)
	}
	atomic.AddInt64(&m.Stats.Similarities, int64(m.K))
	obsSims.Add(int64(m.K))
	return out
}

// ScoreBinary classifies with a two-class model, returning whether class 1
// (face) outscores class 0 and the similarity margin. Unlike Scores it
// allocates nothing and is safe for concurrent use (the class accumulators
// are read-only after training; the work counter is atomic), which makes it
// the scoring entry point of the parallel detection sweep.
func (m *Model) ScoreBinary(v *hv.Vector) (bool, float64) {
	if m.K != 2 {
		panic(fmt.Sprintf("hdc: ScoreBinary needs a binary model, got %d classes", m.K))
	}
	if v.D() != m.D {
		panic(fmt.Sprintf("hdc: query dimension %d, model %d", v.D(), m.D))
	}
	s0, s1 := m.cos(0, v), m.cos(1, v)
	atomic.AddInt64(&m.Stats.Similarities, 2)
	obsSims.Add(2)
	return s1 > s0, s1 - s0
}

// Predict returns the class with the highest similarity to v.
func (m *Model) Predict(v *hv.Vector) int {
	sp := obs.StartSpan("predict")
	defer sp.End()
	sp.AddItems(1)
	scores := m.Scores(v)
	best := 0
	for c, s := range scores {
		if s > scores[best] {
			best = c
		}
	}
	return best
}

// PredictBinary classifies with the binarised model using Hamming
// similarity — the bitwise inference mode hardware accelerators run.
// Finalize must have been called.
func (m *Model) PredictBinary(v *hv.Vector) int {
	if m.Bin == nil {
		panic("hdc: PredictBinary before Finalize")
	}
	sp := obs.StartSpan("predict_binary")
	defer sp.End()
	sp.AddItems(1)
	best, bestSim := 0, math.Inf(-1)
	for c, cv := range m.Bin {
		sim := cv.HammingSim(v)
		atomic.AddInt64(&m.Stats.Similarities, 1)
		obsSims.Inc()
		if sim > bestSim {
			best, bestSim = c, sim
		}
	}
	return best
}

// Finalize binarises the class accumulators for Hamming inference.
func (m *Model) Finalize(seed uint64) {
	r := hv.NewRNG(seed ^ 0xb1a5)
	m.Bin = make([]*hv.Vector, m.K)
	for c := range m.Bin {
		v := hv.New(m.D)
		for i, a := range m.Classes[c] {
			switch {
			case a > 0:
				v.SetBit(i, 1)
			case a == 0:
				if r.Uint64()&1 == 1 {
					v.SetBit(i, 1)
				}
			}
		}
		m.Bin[c] = v
	}
}

// validateBatch checks a (features, labels) batch against a model geometry:
// non-empty, aligned, every feature of dimensionality d, every label in
// [0, k). These are caller-input conditions at the library boundary, so
// violations are errors, not panics.
func validateBatch(features []*hv.Vector, labels []int, d, k int) error {
	if len(features) == 0 || len(features) != len(labels) {
		return fmt.Errorf("hdc: %d features and %d labels must be non-empty and aligned", len(features), len(labels))
	}
	for i, f := range features {
		if f == nil || f.D() != d {
			return fmt.Errorf("hdc: feature %d has dimensionality %v, model has %d", i, featDim(f), d)
		}
		if labels[i] < 0 || labels[i] >= k {
			return fmt.Errorf("hdc: label %d at sample %d outside [0, %d)", labels[i], i, k)
		}
	}
	return nil
}

// featDim prints a feature's dimensionality for error messages, tolerating
// nil.
func featDim(f *hv.Vector) any {
	if f == nil {
		return "nil"
	}
	return f.D()
}

// Update runs one adaptive mistake-weighted refinement pass over the batch
// — the inner loop of Train's retraining epochs, exported so online
// learners can refine an already-trained model incrementally: clone the
// deployed model, Update it with the freshly labelled mini-batch (several
// passes if desired), and promote the clone once it beats the original.
// It returns the number of prediction mistakes observed during the pass;
// zero means the model already fits the batch and further passes are
// no-ops (for Margin == 0).
func (m *Model) Update(features []*hv.Vector, labels []int, opts TrainOpts) (int, error) {
	if err := validateBatch(features, labels, m.D, m.K); err != nil {
		return 0, err
	}
	opts = opts.withDefaults()
	adapt := obs.StartSpan("hdc_adaptive")
	defer adapt.End()
	return m.updatePass(features, labels, opts, adapt), nil
}

// updatePass is the validated core of Update; Train calls it directly for
// its refinement epochs.
func (m *Model) updatePass(features []*hv.Vector, labels []int, opts TrainOpts, adapt *obs.Span) int {
	m.Stats.Epochs++
	obsEpochs.Inc()
	adapt.AddItems(int64(len(features)))
	mistakes := 0
	for i, f := range features {
		y := labels[i]
		scores := m.Scores(f)
		pred := 0
		for c, s := range scores {
			if s > scores[pred] {
				pred = c
			}
		}
		if pred == y {
			if opts.Margin > 0 {
				// Reinforce low-confidence correct predictions.
				runner := math.Inf(-1)
				for c, s := range scores {
					if c != y && s > runner {
						runner = s
					}
				}
				if gap := scores[y] - runner; gap < opts.Margin {
					w := 0.5 * opts.LR * (opts.Margin - gap) / opts.Margin
					m.addScaled(y, f, w)
					m.Stats.AdaptiveSteps++
					obsAdaptive.Inc()
				}
			}
			continue
		}
		mistakes++
		// Weight by how wrong the model was (OnlineHD style).
		w := opts.LR * (1 - (scores[y] - scores[pred]))
		m.addScaled(y, f, w)
		m.addScaled(pred, f, -w)
		m.Stats.AdaptiveSteps++
		obsAdaptive.Inc()
	}
	return mistakes
}

// Train fits a model on hypervector features with integer labels in [0, k).
func Train(features []*hv.Vector, labels []int, k int, opts TrainOpts) (*Model, error) {
	if k < 2 {
		return nil, fmt.Errorf("hdc: need k >= 2 classes, got %d", k)
	}
	if len(features) == 0 {
		return nil, errors.New("hdc: features and labels must be non-empty and aligned")
	}
	if features[0] == nil || features[0].D() <= 0 {
		return nil, errors.New("hdc: first feature is nil or zero-dimensional")
	}
	if err := validateBatch(features, labels, features[0].D(), k); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	m := NewModel(features[0].D(), k)

	// Bootstrap pass: memorise each sample unless the model already
	// recognises it with margin — the paper's "eliminates redundant
	// information memorization ... to eliminate overfitting".
	boot := obs.StartSpan("hdc_bootstrap")
	boot.AddItems(int64(len(features)))
	for i, f := range features {
		y := labels[i]
		scores := m.Scores(f)
		runnerUp := math.Inf(-1)
		for c, s := range scores {
			if c != y && s > runnerUp {
				runnerUp = s
			}
		}
		if scores[y]-runnerUp >= opts.BootstrapMargin {
			m.Stats.BootstrapSkips++
			obsBootSkips.Inc()
			continue
		}
		m.addScaled(y, f, opts.LR)
		m.Stats.BootstrapAdds++
		obsBootAdds.Inc()
	}
	boot.End()

	// Adaptive refinement: mistake-weighted bidirectional updates.
	adapt := obs.StartSpan("hdc_adaptive")
	defer adapt.End()
	for e := 0; e < opts.Epochs; e++ {
		if m.updatePass(features, labels, opts, adapt) == 0 {
			break
		}
	}
	return m, nil
}

// Accuracy returns the fraction of samples Predict classifies correctly.
func (m *Model) Accuracy(features []*hv.Vector, labels []int) float64 {
	if len(features) == 0 {
		return 0
	}
	correct := 0
	for i, f := range features {
		if m.Predict(f) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(features))
}

// Shrink returns a model reduced to the first newD dimensions of the
// given permutation (identity when perm is nil) — the paper's observation
// that HDC's redundant representation tolerates dimensionality reduction:
// a model trained at D=10k still classifies after being cut to a fraction
// of its dimensions, no retraining needed. Queries must be shrunk with
// ShrinkVector using the same permutation.
func (m *Model) Shrink(newD int, perm []int) *Model {
	if newD <= 0 || newD > m.D {
		panic("hdc: Shrink dimension out of range")
	}
	if perm != nil && len(perm) < newD {
		panic("hdc: permutation shorter than newD")
	}
	pick := func(i int) int {
		if perm == nil {
			return i
		}
		return perm[i]
	}
	out := NewModel(newD, m.K)
	for c := range m.Classes {
		for i := 0; i < newD; i++ {
			out.Classes[c][i] = m.Classes[c][pick(i)]
		}
	}
	if m.Bin != nil {
		out.Bin = make([]*hv.Vector, m.K)
		for c, v := range m.Bin {
			nv := hv.New(newD)
			for i := 0; i < newD; i++ {
				nv.SetBit(i, v.Bit(pick(i)))
			}
			out.Bin[c] = nv
		}
	}
	return out
}

// ShrinkVector projects a query hypervector onto the same reduced
// dimension set used by Shrink.
func ShrinkVector(v *hv.Vector, newD int, perm []int) *hv.Vector {
	if newD <= 0 || newD > v.D() {
		panic("hdc: ShrinkVector dimension out of range")
	}
	out := hv.New(newD)
	for i := 0; i < newD; i++ {
		j := i
		if perm != nil {
			j = perm[i]
		}
		out.SetBit(i, v.Bit(j))
	}
	return out
}

// modelWire is the gob-serialised payload of Save.
type modelWire struct {
	D, K    int
	Classes [][]float64
	Bin     [][]uint64
}

// Plausibility bounds for deserialised model geometry, mirroring the header
// guard of hv.ReadSet: dimensionalities and class counts beyond these are
// either corruption or a hostile snapshot trying to drive huge allocations.
const (
	maxWireD = 1 << 24
	maxWireK = 1 << 20
)

// modelMagic prefixes the serialised form, so geometry can be validated
// BEFORE the gob payload (whose decode allocates proportionally to the
// encoded lengths) is touched.
var modelMagic = [4]byte{'H', 'D', 'C', '1'}

// Save writes the model: a fixed binary header (magic, D, K) followed by
// the gob payload. The header lets Load bound-check the geometry before
// gob-decoding anything.
func (m *Model) Save(w io.Writer) error {
	if m.D <= 0 || m.D > maxWireD || m.K < 2 || m.K > maxWireK {
		return fmt.Errorf("hdc: implausible model geometry d=%d k=%d", m.D, m.K)
	}
	if _, err := w.Write(modelMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, [2]uint32{uint32(m.D), uint32(m.K)}); err != nil {
		return err
	}
	wire := modelWire{D: m.D, K: m.K, Classes: m.Classes}
	if m.Bin != nil {
		for _, v := range m.Bin {
			wire.Bin = append(wire.Bin, v.Words())
		}
	}
	return gob.NewEncoder(w).Encode(wire)
}

// Load reads a model written by Save. The header's D/K bounds are validated
// first and the gob payload is read through a limit sized from them, so a
// corrupt or hostile snapshot cannot drive allocations beyond what the
// declared geometry justifies; non-finite class accumulators are rejected
// (a NaN in one dimension would poison every cosine similarity).
func Load(r io.Reader) (*Model, error) {
	var m4 [4]byte
	if _, err := io.ReadFull(r, m4[:]); err != nil {
		return nil, fmt.Errorf("hdc: model header: %w", err)
	}
	if m4 != modelMagic {
		return nil, errors.New("hdc: bad model magic (not a model file, or a pre-header legacy snapshot)")
	}
	var hdr [2]uint32
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("hdc: model header: %w", err)
	}
	d, k := int(hdr[0]), int(hdr[1])
	if d <= 0 || d > maxWireD || k < 2 || k > maxWireK {
		return nil, fmt.Errorf("hdc: implausible model header d=%d k=%d", d, k)
	}
	// Generous over-estimate of the honest payload size (gob encodes a
	// float64 or uint64 in at most 9 bytes plus per-value overhead): floats
	// of the accumulators, words of the binarised classes, structure slack.
	words := int64((d + 63) / 64)
	limit := int64(4096) + int64(k)*(int64(d)+words+16)*10
	var wire modelWire
	if err := gob.NewDecoder(io.LimitReader(r, limit)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("hdc: model payload: %w", err)
	}
	if wire.D != d || wire.K != k || len(wire.Classes) != k {
		return nil, errors.New("hdc: payload geometry contradicts header")
	}
	for _, c := range wire.Classes {
		if len(c) != d {
			return nil, errors.New("hdc: malformed class accumulator")
		}
		for _, a := range c {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return nil, errors.New("hdc: non-finite class accumulator value")
			}
		}
	}
	m := &Model{D: d, K: k, Classes: wire.Classes}
	if wire.Bin != nil {
		if len(wire.Bin) != k {
			return nil, errors.New("hdc: malformed binary classes")
		}
		for _, ws := range wire.Bin {
			v, err := hv.FromWords(d, ws)
			if err != nil {
				return nil, err
			}
			m.Bin = append(m.Bin, v)
		}
	}
	return m, nil
}
