// Package serve turns a trained hdface.Pipeline into a long-lived HTTP
// inference daemon. Every request funnels through one admission-controlled
// queue into a single dispatcher goroutine: the pipeline's extractors are
// stateful and not goroutine-safe, so the dispatcher is the serialisation
// point, and throughput comes from micro-batching — consecutive /predict
// requests are merged (up to MaxBatch, waiting at most FlushInterval for
// stragglers) into one FeaturesContext call that fans out over the
// pipeline's own worker pool. Because feature extraction is a pure function
// of (Config, image) — see hdface.Pipeline.Feature — batching never changes
// results: every response is byte-identical to a direct Pipeline call, no
// matter how requests interleave.
//
// Models are served through a registry: the pipeline supplies features,
// the registry's lock-free live slot supplies the classifier, so a
// promote or rollback swaps models between requests with zero downtime
// and every response names the exact version that scored it. An optional
// online trainer turns POST /feedback into candidate refinement.
package serve

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hdface"
	"hdface/internal/detect"
	"hdface/internal/hdc"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/obs"
	"hdface/internal/obs/trace"
	"hdface/internal/online"
	"hdface/internal/registry"
	"hdface/internal/tenant"
	"hdface/internal/track"
)

// Serving observability, exported through /metrics alongside the pipeline's
// own counters (obs metrics are process-global).
var (
	obsPredictReqs  = obs.NewCounter("hdface_serve_predict_requests_total", "accepted /predict requests")
	obsDetectReqs   = obs.NewCounter("hdface_serve_detect_requests_total", "accepted /detect requests")
	obsFeedbackReqs = obs.NewCounter("hdface_serve_feedback_requests_total", "accepted /feedback requests")
	obsRejected     = obs.NewCounter("hdface_serve_rejected_total", "requests rejected by admission control (503)")
	obsBadRequests  = obs.NewCounter("hdface_serve_bad_requests_total", "malformed requests (4xx)")
	obsBatches      = obs.NewCounter("hdface_serve_batches_total", "predict micro-batches dispatched")
	obsBatchImgs    = obs.NewCounter("hdface_serve_batched_images_total", "images dispatched inside predict micro-batches")
	obsQueueDepth   = obs.NewGauge("hdface_serve_queue_depth", "jobs waiting in the admission queue")
	obsScorerSwaps  = obs.NewCounter("hdface_serve_scorer_rebuilds_total", "detect scorers rebuilt after a model swap")
	obsTenantReqs   = obs.NewCounter("hdface_serve_tenant_requests_total", "requests scored against a tenant model")
	obsLatency      = obs.NewHistogram("hdface_serve_request_seconds", "request latency from admission to response",
		[]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10})
	// obsWinLatency is the windowed complement of obsLatency: the same
	// observations, but quantiled over the last minute only, so "p99 right
	// now" is readable during a drift episode instead of being diluted by
	// every request since process start.
	obsWinLatency = obs.NewRollingQuantile("hdface_serve_request_seconds_window",
		"request latency quantiles over the trailing window", time.Minute)
)

// recentCap bounds the request-ID → feature ring used by /feedback
// corrections; older predicts age out.
const recentCap = 1024

// Config configures a Server. The zero value of every knob gets a sensible
// default; only Pipeline is mandatory.
type Config struct {
	// Pipeline extracts features (and seeds the registry's first version
	// if it is trained and the registry has no live model).
	Pipeline *hdface.Pipeline
	// Registry supplies the live classifier and stores new versions. nil
	// gets a private in-memory registry. Its config must be compatible
	// with the pipeline's.
	Registry *registry.Registry
	// Online enables POST /feedback: accepted samples feed this trainer.
	// nil disables feedback (501). The server starts it but does not own
	// it — callers Close it after the server.
	Online *online.Trainer
	// MaxBatch bounds how many /predict requests one dispatch merges
	// (default 8). 1 disables batching.
	MaxBatch int
	// MaxQueue bounds jobs admitted but not yet dispatched (default 64);
	// beyond it requests are rejected with 503 instead of queueing without
	// bound.
	MaxQueue int
	// FlushInterval bounds how long a partial batch waits for stragglers
	// (default 2ms).
	FlushInterval time.Duration
	// MaxDeadline caps the per-request ?deadline= budget of /detect and is
	// the default when a request names none (default 30s).
	MaxDeadline time.Duration
	// MaxBodyBytes bounds request bodies (default 16 MiB).
	MaxBodyBytes int64
	// DetectParams overrides the sweep geometry. Zero fields default to
	// Win = the pipeline's WorkingSize (else 48), Stride=Win/2,
	// Scales={1,2}, NMSIoU=0.3; Workers defaults to the pipeline's worker
	// count. The detection scorers are built for Win.
	DetectParams detect.Params
	// SLOTarget is the per-request latency goal tracked by the /predict
	// and /detect SLOs (default 250ms).
	SLOTarget time.Duration
	// SLOObjective is the fraction of requests that must meet SLOTarget
	// (default 0.99).
	SLOObjective float64
	// SLOWindow is the sliding window the SLOs and rolling quantiles are
	// evaluated over (default one minute).
	SLOWindow time.Duration
	// FrameDeadline is the default per-frame anytime budget of POST /stream
	// (default 250ms, capped by MaxDeadline): a frame that blows it returns
	// the best-so-far boxes flagged degraded instead of stalling the stream.
	FrameDeadline time.Duration
	// Track tunes the per-stream tracker. Zero fields take the track
	// package defaults, except MaxDist which defaults to 1.5×DetectParams.Win
	// (the positional gate must scale with the detection geometry).
	Track track.Config
	// MinTrackScore drops sweep boxes scoring below it before tracking
	// (0 keeps every detection). /detect responses are unaffected: the
	// floor exists because a spurious low-margin box costs a stream a
	// phantom identity, not just one wrong rectangle.
	MinTrackScore float64
	// Emotion optionally enables per-track emotion-over-time summaries on
	// /stream: each track's appearance hypervectors are temporally bundled
	// (majority merge across frames) and the bundle is scored against this
	// classifier every frame. Must match the pipeline's dimensionality.
	Emotion *hdc.Model
	// Tenants optionally enables multi-tenant serving: a request naming a
	// tenant (X-Hdface-Tenant header or ?tenant=) scores against that
	// tenant's live model from this store instead of the registry's live
	// version, and its feedback feeds that tenant's private lineage. The
	// store must be compatible with the pipeline — every tenant shares the
	// pipeline's bases, only class memory differs. nil disables tenant
	// routing (tenant'd requests get 501).
	Tenants *tenant.Store
}

func (c Config) withDefaults() (Config, error) {
	if c.Pipeline == nil {
		return c, fmt.Errorf("serve: Config.Pipeline is required")
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.DetectParams.Win <= 0 {
		if ws := c.Pipeline.Config().WorkingSize; ws > 0 {
			c.DetectParams.Win = ws
		} else {
			c.DetectParams.Win = 48
		}
	}
	if c.DetectParams.Stride <= 0 {
		c.DetectParams.Stride = c.DetectParams.Win / 2
	}
	if len(c.DetectParams.Scales) == 0 {
		c.DetectParams.Scales = []float64{1, 2}
	}
	if c.DetectParams.NMSIoU <= 0 {
		c.DetectParams.NMSIoU = 0.3
	}
	if c.DetectParams.Workers <= 0 {
		c.DetectParams.Workers = c.Pipeline.Config().Workers
	}
	if c.SLOTarget <= 0 {
		c.SLOTarget = 250 * time.Millisecond
	}
	if c.SLOObjective <= 0 || c.SLOObjective >= 1 {
		c.SLOObjective = 0.99
	}
	if c.SLOWindow <= 0 {
		c.SLOWindow = time.Minute
	}
	if c.FrameDeadline <= 0 {
		c.FrameDeadline = 250 * time.Millisecond
	}
	if c.FrameDeadline > c.MaxDeadline {
		c.FrameDeadline = c.MaxDeadline
	}
	if c.Track.MaxDist == 0 {
		c.Track.MaxDist = 1.5 * float64(c.DetectParams.Win)
	}
	if c.Emotion != nil && c.Emotion.D != c.Pipeline.Config().D {
		return c, fmt.Errorf("serve: emotion model dimensionality %d != pipeline %d",
			c.Emotion.D, c.Pipeline.Config().D)
	}
	if c.Tenants != nil {
		if bc, ok := c.Tenants.BaseConfig(); ok {
			if err := registry.Compatible(bc, c.Pipeline.Config()); err != nil {
				return c, fmt.Errorf("serve: tenant store/pipeline mismatch: %w", err)
			}
		}
	}
	return c, nil
}

type jobKind int

const (
	kindPredict jobKind = iota
	kindDetect
	kindFeedback
	kindStream
)

// result carries a finished job back to its handler. Exactly one of the
// payload groups is set, matching the job kind.
type result struct {
	label   int
	scores  []float64
	version uint64 // model version that produced label/scores/boxes
	reqID   string // predict only; "" when feedback is disabled
	tenant  string // tenant the version belongs to; "" = registry live

	boxes []detect.Box
	stats detect.SweepStats

	event *StreamEvent // stream only: the finished frame's NDJSON event

	// promoted is the version a tenant feedback round just made live
	// (0 when the sample only joined the batch).
	promoted uint64

	err error
}

type job struct {
	kind jobKind
	img  *imgproc.Image
	// label is the feedback correction for kindFeedback.
	label int
	// tenant routes the job to a tenant's live model instead of the
	// registry's ("" = registry live, the single-tenant path).
	tenant string
	// ctx carries the request's detect budget; it starts ticking at
	// admission, so time spent queued counts against the deadline.
	ctx  context.Context
	resp chan result // buffered (cap 1): the dispatcher never blocks on it

	// stream is the per-connection tracking state for kindStream frames.
	// Only the dispatcher touches it while the frame runs; the handler
	// submits the next frame only after reading this one's result, so
	// ownership alternates without locks.
	stream *streamState

	// tr is the request's trace (nil when tracing is off); enq and deq
	// bracket the admission queue so the dispatcher can attribute queue
	// wait vs. batch wait vs. inference.
	tr  *trace.Trace
	enq time.Time
	deq time.Time
}

// Server is the batched inference engine plus its HTTP surface.
type Server struct {
	cfg     Config
	reg     *registry.Registry
	trainer *online.Trainer
	queue   chan *job
	done    chan struct{}

	mu        sync.RWMutex // guards closed vs. enqueue
	closed    bool
	closeOnce sync.Once

	// Detect scorer cache, keyed by the live version it was built from.
	// Dispatcher-goroutine only: DetectScorer forks pipeline state.
	scorerVer uint64
	scorer    detect.WindowScorer
	scorerErr error

	// Per-tenant detect scorer cache, keyed by tenant ID and invalidated
	// when the tenant's live version moves. Dispatcher-goroutine only,
	// bounded by tenantScorerCap.
	tenantScorers map[string]*tenantScorer

	// Recent predict features for request-ID feedback corrections.
	reqSeq   atomic.Uint64
	recentMu sync.Mutex
	recent   map[string]*hv.Vector
	recentQ  []string

	// Per-endpoint latency SLOs, evaluated over Config.SLOWindow and
	// served by /debug/slo. sloStream is per-frame, against FrameDeadline.
	sloPredict *obs.SLO
	sloDetect  *obs.SLO
	sloStream  *obs.SLO
}

// New validates the configuration, seeds the registry if needed and starts
// the dispatcher. Callers must Close the server to stop it; after draining
// any HTTP listener feeding it.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// A daemon that exports /metrics should have live metrics: arm the
	// (process-global) obs layer, and the tracer with it — /debug/traces
	// and per-response trace IDs are part of the serving contract. The
	// overhead is a few atomic adds plus one small span tree per request —
	// noise next to feature extraction.
	obs.Enable()
	trace.Enable()
	reg := cfg.Registry
	if reg == nil {
		if reg, err = registry.Open("", 0); err != nil {
			return nil, err
		}
	}
	if rcfg, ok := reg.Config(); ok {
		if err := registry.Compatible(rcfg, cfg.Pipeline.Config()); err != nil {
			return nil, fmt.Errorf("serve: registry/pipeline mismatch: %w", err)
		}
	}
	// A trained pipeline with no live registry model seeds version 1, so
	// "train, snapshot, serve" keeps working with zero registry ceremony.
	if reg.Live() == nil && cfg.Pipeline.Model() != nil {
		id, err := reg.Put(cfg.Pipeline.Config(), cfg.Pipeline.Model())
		if err != nil {
			return nil, fmt.Errorf("serve: seed registry: %w", err)
		}
		if err := reg.Promote(id); err != nil {
			return nil, fmt.Errorf("serve: seed registry: %w", err)
		}
	}
	s := &Server{
		cfg:           cfg,
		reg:           reg,
		trainer:       cfg.Online,
		queue:         make(chan *job, cfg.MaxQueue),
		done:          make(chan struct{}),
		recent:        make(map[string]*hv.Vector),
		tenantScorers: make(map[string]*tenantScorer),
		sloPredict:    obs.NewSLO("predict", cfg.SLOTarget, cfg.SLOObjective, cfg.SLOWindow),
		sloDetect:     obs.NewSLO("detect", cfg.SLOTarget, cfg.SLOObjective, cfg.SLOWindow),
		sloStream:     obs.NewSLO("stream", cfg.FrameDeadline, cfg.SLOObjective, cfg.SLOWindow),
	}
	if s.trainer != nil {
		s.trainer.Start()
	}
	go s.dispatch()
	return s, nil
}

// Registry exposes the registry the server scores from (useful when New
// created a private in-memory one).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Close stops admission, lets the dispatcher finish every job already
// queued (their handlers get real responses, not errors), and waits for it
// to exit. Idempotent and safe to call from multiple goroutines — lifecycle
// actions may come from both signal handlers and registry tooling. Call
// only after in-flight HTTP handlers have drained (http.Server.Shutdown
// does exactly that).
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		close(s.queue)
		s.mu.Unlock()
	})
	<-s.done
}

// enqueue admits a job unless the server is closed or the queue is full.
func (s *Server) enqueue(j *job) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	select {
	case s.queue <- j:
		obsQueueDepth.Set(float64(len(s.queue)))
		return true
	default:
		return false
	}
}

// dispatch is the single inference loop: it owns the pipeline.
func (s *Server) dispatch() {
	defer close(s.done)
	for {
		j, ok := <-s.queue
		if !ok {
			return
		}
		s.run(j)
	}
}

// run executes one dequeued job; a predict job first collects a micro-batch
// behind it.
func (s *Server) run(first *job) {
	obsQueueDepth.Set(float64(len(s.queue)))
	first.deq = time.Now()
	if first.kind != kindPredict {
		s.runOther(first)
		return
	}
	batch := []*job{first}
	var next *job
	if s.cfg.MaxBatch > 1 {
		timer := time.NewTimer(s.cfg.FlushInterval)
	collect:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case j, ok := <-s.queue:
				if !ok {
					break collect
				}
				j.deq = time.Now()
				if j.kind != kindPredict {
					// Non-predict jobs don't batch; run it right after
					// this batch rather than re-queueing behind new
					// arrivals.
					next = j
					break collect
				}
				batch = append(batch, j)
			case <-timer.C:
				break collect
			}
		}
		timer.Stop()
	}
	s.runPredicts(batch)
	if next != nil {
		s.runOther(next)
	}
}

func (s *Server) runOther(j *job) {
	switch j.kind {
	case kindDetect:
		s.runDetect(j)
	case kindFeedback:
		s.runFeedback(j)
	case kindStream:
		s.runStream(j)
	}
}

// runPredicts extracts the whole batch through the pipeline's parallel
// feature path and scores each image against its model: the tenant's live
// version for tenant'd jobs, the registry's otherwise. The registry live
// pointer is read once, so every single-tenant response in a batch is
// attributable to exactly one version even if a promote lands mid-batch;
// tenant jobs resolve their own tenant's slot and batch freely with
// everyone else — feature extraction is tenant-agnostic (shared bases),
// only the class-memory lookup differs. Per-image content reseeding makes
// the outputs independent of batch composition, so this is exactly
// equivalent to len(batch) separate scoring calls.
func (s *Server) runPredicts(batch []*job) {
	obsBatches.Inc()
	obsBatchImgs.Add(int64(len(batch)))
	// Queue wait (admission to dequeue) and batch wait (dequeue to
	// dispatch) are attributed per job: the first job of a batch pays
	// batch wait for the stragglers it waited on, the stragglers pay
	// queue wait. This is the split that tells an operator whether to
	// raise MaxBatch or shrink FlushInterval.
	infStart := time.Now()
	anyTenant := false
	for _, j := range batch {
		if j.tr != nil {
			j.tr.AddSpan("queue_wait", j.enq, j.deq)
			j.tr.AddSpan("batch_wait", j.deq, infStart)
		}
		if j.tenant != "" {
			anyTenant = true
		}
	}
	live := s.reg.Live()
	if live == nil && !anyTenant {
		for _, j := range batch {
			j.resp <- result{err: fmt.Errorf("no live model")}
		}
		return
	}
	p := s.cfg.Pipeline
	imgs := make([]*imgproc.Image, len(batch))
	for i, j := range batch {
		imgs[i] = j.img
	}
	feats, err := p.FeaturesContext(context.Background(), imgs)
	if err != nil {
		for _, j := range batch {
			j.resp <- result{err: err}
		}
		return
	}
	extractEnd := time.Now()
	for i, j := range batch {
		var model *hdc.Model
		var version uint64
		if j.tenant != "" {
			v, m, err := s.cfg.Tenants.Model(j.tenant)
			if err != nil {
				j.resp <- result{err: err}
				continue
			}
			model, version = m, v.ID
			obsTenantReqs.Inc()
		} else {
			if live == nil {
				j.resp <- result{err: fmt.Errorf("no live model")}
				continue
			}
			model, version = live.Model, live.ID
		}
		scores := model.Scores(feats[i])
		best := 0
		for c, sc := range scores {
			if sc > scores[best] {
				best = c
			}
		}
		reqID := ""
		// Tenant jobs remember their feature even without a trainer: a
		// request-ID /feedback correction routes to the tenant store.
		if s.trainer != nil || j.tenant != "" {
			reqID = s.remember(feats[i])
		}
		if j.tr != nil {
			sp := j.tr.AddSpan("inference", infStart, time.Now())
			sp.SetAttrInt("batch_size", int64(len(batch)))
			sp.SetAttrInt("model_version", int64(version))
			sp.AddSpan("extract", infStart, extractEnd)
		}
		j.resp <- result{label: best, scores: scores, version: version, reqID: reqID, tenant: j.tenant}
	}
}

// remember files a predict feature under a fresh request ID so a later
// /feedback correction can reference it without resending the image.
func (s *Server) remember(f *hv.Vector) string {
	id := strconv.FormatUint(s.reqSeq.Add(1), 10)
	s.recentMu.Lock()
	if len(s.recentQ) >= recentCap {
		delete(s.recent, s.recentQ[0])
		s.recentQ = s.recentQ[1:]
	}
	s.recent[id] = f
	s.recentQ = append(s.recentQ, id)
	s.recentMu.Unlock()
	return id
}

// lookupRecent resolves a feedback request ID to its stored feature.
func (s *Server) lookupRecent(id string) (*hv.Vector, bool) {
	s.recentMu.Lock()
	defer s.recentMu.Unlock()
	f, ok := s.recent[id]
	return f, ok
}

// runFeedback extracts the image's feature on the dispatcher (the pipeline
// is not goroutine-safe) and hands the sample to the trainer — or, for a
// tenant'd job, to the tenant's private feedback batch (which may trigger
// a synchronous per-tenant refinement round right here).
func (s *Server) runFeedback(j *job) {
	if j.tr != nil {
		j.tr.AddSpan("queue_wait", j.enq, time.Now())
	}
	sp := j.tr.StartSpan("extract")
	f := s.cfg.Pipeline.Feature(j.img)
	sp.End()
	if j.tenant != "" {
		promoted, err := s.cfg.Tenants.Feedback(j.tenant, f, j.label)
		j.resp <- result{promoted: promoted, tenant: j.tenant, err: err}
		return
	}
	j.resp <- result{err: s.trainer.Enqueue(online.Sample{Feature: f, Label: j.label})}
}

// runDetect sweeps one image under the request's deadline context. A blown
// deadline degrades (best-so-far boxes, Degraded flag) rather than erroring
// — the detect package's anytime contract.
func (s *Server) runDetect(j *job) {
	if j.tr != nil {
		j.tr.AddSpan("queue_wait", j.enq, time.Now())
	}
	scorer, version, err := s.scorerFor(j)
	if err != nil {
		j.resp <- result{err: err}
		return
	}
	// The sweep hangs its own span tree (per-level spans, the parallel
	// scoring region) under the trace carried by the context.
	ctx := trace.NewContext(j.ctx, j.tr)
	boxes, stats, err := detect.Sweep(ctx, j.img, scorer, s.cfg.DetectParams)
	if j.tr != nil {
		j.tr.SetAttr("model_version", strconv.FormatUint(version, 10))
	}
	j.resp <- result{boxes: boxes, stats: stats, version: version, tenant: j.tenant, err: err}
}

// scorerFor resolves the job's scoring model — the tenant's live version
// or the registry's — and its cached window scorer. Dispatcher goroutine
// only (scorer builds fork pipeline state).
func (s *Server) scorerFor(j *job) (detect.WindowScorer, uint64, error) {
	if j.tenant == "" {
		live := s.reg.Live()
		if live == nil {
			return nil, 0, fmt.Errorf("no live model")
		}
		sc, err := s.detectScorer(live, j.tr)
		return sc, live.ID, err
	}
	v, m, err := s.cfg.Tenants.Model(j.tenant)
	if err != nil {
		return nil, 0, err
	}
	obsTenantReqs.Inc()
	sc, err := s.tenantDetectScorer(j.tenant, v.ID, m, j.tr)
	return sc, v.ID, err
}

// detectScorer returns a sweep scorer for the given live version,
// rebuilding the cached one after a swap. DetectScorer forks pipeline
// state, so it must run on the dispatcher goroutine — and does: the only
// caller is scorerFor.
func (s *Server) detectScorer(live *registry.Version, tr *trace.Trace) (detect.WindowScorer, error) {
	// Version IDs start at 1, so the zero scorerVer always misses first.
	if s.scorerVer != live.ID {
		sp := tr.StartSpan("scorer_build")
		s.scorer, s.scorerErr = s.cfg.Pipeline.DetectScorer(live.Model, s.cfg.DetectParams.Win)
		s.scorerVer = live.ID
		sp.End()
		obsScorerSwaps.Inc()
	}
	return s.scorer, s.scorerErr
}

// tenantScorer is one cached per-tenant sweep scorer, valid while the
// tenant's live version stays ver.
type tenantScorer struct {
	ver    uint64
	scorer detect.WindowScorer
	err    error
}

// tenantScorerCap bounds the per-tenant scorer cache: with thousands of
// tenants resident the scorers (which hold forked pipeline state) must
// not grow without bound the way compact blobs may.
const tenantScorerCap = 256

// tenantDetectScorer returns the tenant's cached sweep scorer, rebuilding
// it after that tenant's live version moved. Dispatcher goroutine only.
func (s *Server) tenantDetectScorer(id string, ver uint64, m *hdc.Model, tr *trace.Trace) (detect.WindowScorer, error) {
	if c := s.tenantScorers[id]; c != nil && c.ver == ver {
		return c.scorer, c.err
	}
	if len(s.tenantScorers) >= tenantScorerCap {
		// Wholesale reset: a full cache means detect traffic churned past
		// the working set, and rebuilding a scorer costs milliseconds —
		// cheaper than tracking per-entry recency on the hot path.
		clear(s.tenantScorers)
	}
	sp := tr.StartSpan("scorer_build")
	sc, err := s.cfg.Pipeline.DetectScorer(m, s.cfg.DetectParams.Win)
	sp.End()
	obsScorerSwaps.Inc()
	s.tenantScorers[id] = &tenantScorer{ver: ver, scorer: sc, err: err}
	return sc, err
}
