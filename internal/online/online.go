// Package online adapts a served hdface model to drift using the paper's
// own learning rule. Feedback samples (a feature hypervector plus the
// correct label) stream into a bounded queue; the trainer refines a clone
// of the live model with the existing mistake-weighted update pass, and a
// shadow-evaluation gate promotes the candidate through the registry only
// if it beats the live model on a held-out window. Drift is detected from
// the live model's own similarity margins (top-1 minus top-2 score): a
// collapsing margin is visible before accuracy is, because HDC scores
// degrade gracefully rather than flipping hard.
package online

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"hdface"
	"hdface/internal/hdc"
	"hdface/internal/hv"
	"hdface/internal/obs"
	"hdface/internal/obs/trace"
	"hdface/internal/registry"
)

var (
	obsIngested = obs.NewCounter("hdface_online_ingested_total",
		"Feedback samples accepted into the online-learning queue.")
	obsDropped = obs.NewCounter("hdface_online_dropped_total",
		"Feedback samples rejected because the queue was full.")
	obsRounds = obs.NewCounter("hdface_online_rounds_total",
		"Refinement rounds (candidate trained and shadow-evaluated).")
	obsPromotions = obs.NewCounter("hdface_online_promotions_total",
		"Candidates that beat the live model and were promoted.")
	obsRejections = obs.NewCounter("hdface_online_rejections_total",
		"Candidates rejected by the shadow-evaluation gate.")
	obsDrift = obs.NewCounter("hdface_online_drift_events_total",
		"Drift detections (mean similarity margin below threshold).")
	obsDeltaSamples = obs.NewCounter("hdface_online_delta_samples_total",
		"Mis-predicted feedback samples absorbed into the local delta.")
	obsAdoptions = obs.NewCounter("hdface_online_adoptions_total",
		"Pushed fleet candidates that passed the adoption gate.")
	obsAdoptRejections = obs.NewCounter("hdface_online_adopt_rejections_total",
		"Pushed fleet candidates rejected by the adoption gate.")
)

// Sample is one unit of feedback: the feature hypervector of an image the
// model saw (or will see) and its correct label.
type Sample struct {
	Feature *hv.Vector
	Label   int
}

// Config parameterises a Trainer. Zero values take the documented
// defaults.
type Config struct {
	// Registry stores candidates and publishes promotions. Required.
	Registry *registry.Registry
	// Pipe is the pipeline config new versions are stored under; it must
	// be registry-compatible with the versions already there.
	Pipe hdface.Config
	// QueueSize bounds the feedback queue (default 256). A full queue
	// drops new samples — feedback is advisory, serving is not.
	QueueSize int
	// BatchSize triggers a refinement round when this many samples have
	// accumulated (default 32).
	BatchSize int
	// WindowSize is the rolling similarity-margin window used for drift
	// detection (default 64).
	WindowSize int
	// DriftThreshold: when the window is full and the mean live-model
	// margin falls below it, a refinement round fires immediately
	// (default 0.05).
	DriftThreshold float64
	// HoldoutEvery diverts every n-th sample to the held-out shadow
	// evaluation set instead of the training batch (default 4).
	HoldoutEvery int
	// HoldoutSize bounds the held-out ring (default 64).
	HoldoutSize int
	// MinHoldout is the smallest held-out set a promotion decision may
	// be based on; with fewer samples the candidate is rejected
	// (default 8).
	MinHoldout int
	// Epochs of the mistake-weighted update pass per round (default 3).
	Epochs int
	// Opts configures the update rule (LR, margins). Candidate
	// re-binarisation uses Pipe.Seed, matching Pipeline.Fit.
	Opts hdc.TrainOpts
	// PromoteEpsilon is the margin by which a candidate's held-out
	// accuracy must exceed the live model's to be promoted (default 0:
	// strictly better).
	PromoteEpsilon float64
	// Replica names this trainer in the delta it exports to a fleet
	// router (default "local"). Replica names must be unique within a
	// fleet: the router's merger keys per-replica state on them.
	Replica string
	// DeltaOnly suppresses local refinement rounds: feedback still feeds
	// the drift window, the held-out ring and the delta accumulator, but
	// model updates only arrive via Adopt (the router's merged pushes).
	// Fleet replicas run delta-only so they keep a common base model
	// between merges — locally diverged bases would make their deltas
	// unmergeable.
	DeltaOnly bool
	// AdoptEpsilon is how much held-out accuracy a pushed candidate may
	// LOSE versus the live model and still be adopted (default 0: ties
	// accepted). Adoption is deliberately laxer than promotion — the
	// merged model carries other replicas' evidence that this replica's
	// holdout cannot see — but still bounds merge-induced regressions.
	AdoptEpsilon float64
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 64
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.05
	}
	if c.HoldoutEvery <= 0 {
		c.HoldoutEvery = 4
	}
	if c.HoldoutSize <= 0 {
		c.HoldoutSize = 64
	}
	if c.MinHoldout <= 0 {
		c.MinHoldout = 8
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	if c.Replica == "" {
		c.Replica = "local"
	}
	return c
}

// Stats is a point-in-time snapshot of trainer activity, safe to read
// concurrently with ingestion.
type Stats struct {
	Seen            int64 `json:"seen"`
	Dropped         int64 `json:"dropped"`
	Rounds          int64 `json:"rounds"`
	Promotions      int64 `json:"promotions"`
	Rejections      int64 `json:"rejections"`
	DriftEvents     int64 `json:"drift_events"`
	DeltaSamples    int64 `json:"delta_samples"`
	Adoptions       int64 `json:"adoptions"`
	AdoptRejections int64 `json:"adopt_rejections"`
}

// Trainer consumes feedback and drives candidate refinement. Streaming
// state (batch, held-out ring, margin window) is owned by whichever
// goroutine calls Step — either the one launched by Start, or the caller
// itself in synchronous use (benchmarks). The two modes must not be
// mixed. Adopt may be called from any goroutine (it is how a fleet
// router's merged pushes arrive); stepMu serialises it against Step.
type Trainer struct {
	cfg Config
	reg *registry.Registry

	queue   chan Sample
	mu      sync.Mutex
	closed  bool
	started atomic.Bool
	done    chan struct{}

	// stepMu serialises the streaming state mutators: Step (trainer
	// goroutine) and Adopt (any goroutine). Uncontended in the common
	// case — Adopt only arrives on a merge push.
	stepMu sync.Mutex

	// Step-owned streaming state (under stepMu).
	batch      []Sample
	holdout    []Sample
	holdoutPos int
	margins    []float64
	marginPos  int
	marginN    int

	// Delta accumulation for the fleet feedback plane. deltaMu is taken
	// inside stepMu (never the reverse) so Delta() can snapshot without
	// waiting out a refinement round.
	deltaMu sync.Mutex
	delta   *Delta
	epoch   uint64
	// fpVersion/fpValue cache the live model's fingerprint by registry
	// version ID so Step doesn't rehash K*D floats per sample.
	fpVersion uint64
	fpValue   uint64

	seen, dropped, rounds, promotions, rejections, drift atomic.Int64
	deltaSamples, adoptions, adoptRejections             atomic.Int64
}

// New validates the config and builds a trainer (not yet running).
func New(cfg Config) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if cfg.Registry == nil {
		return nil, fmt.Errorf("online: Config.Registry is required")
	}
	return &Trainer{
		cfg:     cfg,
		reg:     cfg.Registry,
		queue:   make(chan Sample, cfg.QueueSize),
		done:    make(chan struct{}),
		margins: make([]float64, cfg.WindowSize),
	}, nil
}

// Enqueue submits one feedback sample without blocking. A full queue or a
// closed trainer returns an error and drops the sample.
func (t *Trainer) Enqueue(s Sample) error {
	if s.Feature == nil {
		return fmt.Errorf("online: nil feature")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("online: trainer closed")
	}
	select {
	case t.queue <- s:
		obsIngested.Inc()
		return nil
	default:
		t.dropped.Add(1)
		obsDropped.Inc()
		return fmt.Errorf("online: feedback queue full")
	}
}

// Start launches the consumer goroutine. Call at most once.
func (t *Trainer) Start() {
	if !t.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(t.done)
		for s := range t.queue {
			t.Step(s)
		}
	}()
}

// Close stops ingestion, drains the queue and waits for the consumer to
// exit. Idempotent and safe to call concurrently.
func (t *Trainer) Close() {
	t.mu.Lock()
	if !t.closed {
		t.closed = true
		close(t.queue)
	}
	t.mu.Unlock()
	if t.started.Load() {
		<-t.done
	}
}

// Stats snapshots the trainer counters.
func (t *Trainer) Stats() Stats {
	return Stats{
		Seen:            t.seen.Load(),
		Dropped:         t.dropped.Load(),
		Rounds:          t.rounds.Load(),
		Promotions:      t.promotions.Load(),
		Rejections:      t.rejections.Load(),
		DriftEvents:     t.drift.Load(),
		DeltaSamples:    t.deltaSamples.Load(),
		Adoptions:       t.adoptions.Load(),
		AdoptRejections: t.adoptRejections.Load(),
	}
}

// Delta returns a snapshot of the local feedback accumulator, or nil if
// no feedback has arrived since the trainer started (the accumulator is
// created lazily against the first live model Step sees). Safe to call
// from any goroutine; the snapshot is a deep copy.
func (t *Trainer) Delta() *Delta {
	t.deltaMu.Lock()
	defer t.deltaMu.Unlock()
	if t.delta == nil {
		return nil
	}
	return t.delta.Clone()
}

// liveFingerprint returns the live model's content fingerprint, cached by
// registry version ID so steady-state Steps don't rehash the model.
func (t *Trainer) liveFingerprint(live *registry.Version) uint64 {
	if t.fpVersion != live.ID || t.fpVersion == 0 {
		t.fpVersion, t.fpValue = live.ID, live.Model.Fingerprint()
	}
	return t.fpValue
}

// rebaseDelta resets the accumulator onto the (new) live model: evidence
// gathered against the old base is either already inside the new model or
// no longer safe to fold in, so the epoch advances and the sums clear.
// Callers hold stepMu.
func (t *Trainer) rebaseDelta(live *registry.Version) {
	t.deltaMu.Lock()
	defer t.deltaMu.Unlock()
	t.epoch++
	t.delta = NewDelta(t.cfg.Replica, t.liveFingerprint(live), t.epoch,
		live.Model.D, live.Model.K)
}

// Step processes one feedback sample synchronously: it updates the drift
// window with the live model's margin, routes the sample to the training
// batch or the held-out ring, and runs a refinement round when the batch
// fills or drift fires. It returns the ID of a newly promoted version, or
// 0. Step must only be called from one goroutine (see Trainer doc).
func (t *Trainer) Step(s Sample) uint64 {
	t.stepMu.Lock()
	defer t.stepMu.Unlock()
	live := t.reg.Live()
	if live == nil || s.Feature == nil || s.Feature.D() != live.Model.D {
		return 0 // nothing to adapt, or sample incompatible with live model
	}
	if s.Label < 0 || s.Label >= live.Model.K {
		return 0
	}
	t.seen.Add(1)
	n := t.seen.Load()

	// Drift signal: the live model's top-1 minus top-2 similarity on this
	// sample. Margins shrink as class memories drift off the data.
	scores := live.Model.Scores(s.Feature)
	pred, top1, top2 := 0, -1.0, -1.0
	for c, sc := range scores {
		if sc > top1 {
			top1, top2 = sc, top1
			pred = c
		} else if sc > top2 {
			top2 = sc
		}
	}
	t.margins[t.marginPos] = top1 - top2
	t.marginPos = (t.marginPos + 1) % len(t.margins)
	if t.marginN < len(t.margins) {
		t.marginN++
	}

	if n%int64(t.cfg.HoldoutEvery) == 0 {
		// Held-out samples gate promotions and adoptions; keeping them out
		// of the delta keeps the gate's evidence independent of the models
		// it judges.
		if len(t.holdout) < t.cfg.HoldoutSize {
			t.holdout = append(t.holdout, s)
		} else {
			t.holdout[t.holdoutPos] = s
			t.holdoutPos = (t.holdoutPos + 1) % len(t.holdout)
		}
		return 0
	}

	// Fleet feedback plane: mis-predicted samples carry evidence the live
	// model lacks; absorb their ±1 feature bits into the local delta for
	// the router's bundling merge. Correct predictions are redundant with
	// the class memory and would only inflate it.
	if pred != s.Label {
		t.deltaMu.Lock()
		// Rebase lazily on first use and whenever the live model changed
		// underneath us (an operator promote/rollback does not go through
		// round or Adopt, but still invalidates the accumulated evidence).
		if t.delta == nil || t.delta.Base != t.liveFingerprint(live) {
			t.epoch++
			t.delta = NewDelta(t.cfg.Replica, t.liveFingerprint(live), t.epoch,
				live.Model.D, live.Model.K)
		}
		t.delta.Add(s.Feature, s.Label, pred)
		t.deltaMu.Unlock()
		t.deltaSamples.Add(1)
		obsDeltaSamples.Inc()
	}

	if !t.cfg.DeltaOnly {
		t.batch = append(t.batch, s)
	}

	drifted := false
	if t.marginN == len(t.margins) {
		var sum float64
		for _, m := range t.margins {
			sum += m
		}
		if sum/float64(len(t.margins)) < t.cfg.DriftThreshold {
			drifted = true
			t.drift.Add(1)
			obsDrift.Inc()
			t.marginN, t.marginPos = 0, 0 // re-arm the detector
		}
	}
	if t.cfg.DeltaOnly {
		return 0 // refinement arrives via Adopt, not local rounds
	}
	if len(t.batch) >= t.cfg.BatchSize || (drifted && len(t.batch) > 0) {
		return t.round(live)
	}
	return 0
}

// round refines a candidate from the live model on the accumulated batch
// and promotes it if it survives the shadow-evaluation gate. Each round
// records a "train_round" trace (mini_batch → shadow_eval → promote spans
// with an outcome attribute) so /debug/traces explains why a candidate
// was or was not promoted.
func (t *Trainer) round(live *registry.Version) uint64 {
	t.rounds.Add(1)
	obsRounds.Inc()
	tr := trace.New("train_round", "")
	defer tr.Finish()
	tr.SetAttr("base_version", strconv.FormatUint(live.ID, 10))
	reject := func(outcome string) uint64 {
		t.rejections.Add(1)
		obsRejections.Inc()
		tr.SetAttr("outcome", outcome)
		return 0
	}

	feats := make([]*hv.Vector, len(t.batch))
	labels := make([]int, len(t.batch))
	for i, s := range t.batch {
		feats[i], labels[i] = s.Feature, s.Label
	}
	t.batch = t.batch[:0]

	bsp := tr.StartSpan("mini_batch")
	bsp.SetAttrInt("samples", int64(len(feats)))
	bsp.SetAttrInt("epochs", int64(t.cfg.Epochs))
	cand := live.Model.Clone()
	for e := 0; e < t.cfg.Epochs; e++ {
		mistakes, err := cand.Update(feats, labels, t.cfg.Opts)
		if err != nil {
			bsp.End()
			tr.SetError(true)
			return reject("update_error")
		}
		if mistakes == 0 {
			break
		}
	}
	bsp.End()

	// Shadow evaluation: the candidate must beat the live model on the
	// held-out window. With too little held-out evidence, reject — a
	// wrong promotion serves bad predictions to everyone.
	if len(t.holdout) < t.cfg.MinHoldout {
		return reject("holdout_too_small")
	}
	esp := tr.StartSpan("shadow_eval")
	esp.SetAttrInt("holdout", int64(len(t.holdout)))
	liveAcc := accuracy(live.Model, t.holdout)
	candAcc := accuracy(cand, t.holdout)
	esp.SetAttr("live_acc", strconv.FormatFloat(liveAcc, 'g', 4, 64))
	esp.SetAttr("cand_acc", strconv.FormatFloat(candAcc, 'g', 4, 64))
	esp.End()
	if candAcc <= liveAcc+t.cfg.PromoteEpsilon {
		return reject("shadow_eval_lost")
	}

	psp := tr.StartSpan("promote")
	cand.Finalize(t.cfg.Pipe.Seed ^ 0xf1a1)
	id, err := t.reg.Put(t.cfg.Pipe, cand)
	if err != nil {
		psp.End()
		tr.SetError(true)
		return reject("put_error")
	}
	if err := t.reg.Promote(id); err != nil {
		psp.End()
		tr.SetError(true)
		return reject("promote_error")
	}
	psp.SetAttrInt("version", int64(id))
	psp.End()
	tr.SetAttr("outcome", "promoted")
	t.promotions.Add(1)
	obsPromotions.Inc()
	// The world changed: old margins describe the previous model, and the
	// delta's evidence is now inside the live class memory.
	t.marginN, t.marginPos = 0, 0
	if nowLive := t.reg.Live(); nowLive != nil {
		t.rebaseDelta(nowLive)
	}
	return id
}

// Adopt runs a pushed candidate — typically the fleet router's merged
// model — through the replica-side adoption gate: shadow evaluation on
// the held-out ring, accepting unless the candidate is worse than the
// live model by more than AdoptEpsilon. On success the candidate is
// stored, promoted and the local delta rebases onto it. The returned
// outcome is one of "promoted", "no_holdout" (accepted without evidence),
// or "gate_rejected"; id is non-zero only when promoted. Safe to call
// from any goroutine.
func (t *Trainer) Adopt(cfg hdface.Config, cand *hdc.Model) (id uint64, outcome string, err error) {
	t.stepMu.Lock()
	defer t.stepMu.Unlock()
	tr := trace.New("delta_adopt", "")
	defer tr.Finish()

	live := t.reg.Live()
	if live != nil && len(t.holdout) >= t.cfg.MinHoldout {
		esp := tr.StartSpan("shadow_eval")
		esp.SetAttrInt("holdout", int64(len(t.holdout)))
		liveAcc := accuracy(live.Model, t.holdout)
		candAcc := accuracy(cand, t.holdout)
		esp.SetAttr("live_acc", strconv.FormatFloat(liveAcc, 'g', 4, 64))
		esp.SetAttr("cand_acc", strconv.FormatFloat(candAcc, 'g', 4, 64))
		esp.End()
		if candAcc < liveAcc-t.cfg.AdoptEpsilon {
			tr.SetAttr("outcome", "gate_rejected")
			t.adoptRejections.Add(1)
			obsAdoptRejections.Inc()
			return 0, "gate_rejected", nil
		}
		outcome = "promoted"
	} else {
		// No live model or too little held-out evidence to judge: adopt.
		// The router's merge already starts from a model every replica's
		// promote gate accepted, so blind adoption is bounded-risk, and
		// refusing would wedge a fresh replica out of the fleet forever.
		outcome = "no_holdout"
	}

	psp := tr.StartSpan("promote")
	id, err = t.reg.Put(cfg, cand)
	if err == nil {
		err = t.reg.Promote(id)
	}
	if err != nil {
		psp.End()
		tr.SetError(true)
		tr.SetAttr("outcome", "promote_error")
		return 0, "promote_error", err
	}
	psp.SetAttrInt("version", int64(id))
	psp.End()
	tr.SetAttr("outcome", outcome)
	t.adoptions.Add(1)
	obsAdoptions.Inc()
	t.marginN, t.marginPos = 0, 0
	if nowLive := t.reg.Live(); nowLive != nil {
		t.rebaseDelta(nowLive)
	}
	return id, outcome, nil
}

func accuracy(m *hdc.Model, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if m.Predict(s.Feature) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}
