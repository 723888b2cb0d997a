// Package fleet is the fault-tolerant serving tier: one router process
// fanning /predict and /detect out to N serve daemons. Availability comes
// from four mechanisms layered in order of reaction time: per-request
// retries with jittered exponential backoff (milliseconds), tail-latency
// hedging against the rolling p95 (tens of milliseconds), per-replica
// circuit breakers tripped by consecutive request failures (sub-second),
// and active health probing of /healthz with consecutive-failure ejection
// and half-open rejoin (seconds). Load beyond what the healthy fraction
// of the fleet can absorb is shed early with 503 + Retry-After rather
// than queued into a latency collapse.
//
// The router also runs the distributed half of online learning: it
// periodically pulls each replica's feedback delta, merges them by
// bundling (see internal/online's CRDT argument), folds the merged
// evidence into the fleet's model and offers the candidate back to every
// replica's adoption gate. See merge.go.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hdface/internal/hv"
	"hdface/internal/obs"
	"hdface/internal/obs/trace"
)

var (
	obsRequests = obs.NewCounter("hdface_fleet_requests_total",
		"client requests accepted by the router")
	obsAttempts = obs.NewCounter("hdface_fleet_attempts_total",
		"replica attempts launched (first tries, retries and hedges)")
	obsRetries = obs.NewCounter("hdface_fleet_retries_total",
		"attempts relaunched after a replica failure")
	obsHedges = obs.NewCounter("hdface_fleet_hedges_total",
		"hedge attempts launched after the rolling p95 budget expired")
	obsHedgeWins = obs.NewCounter("hdface_fleet_hedge_wins_total",
		"requests won by a hedge attempt rather than the original")
	obsShed = obs.NewCounter("hdface_fleet_shed_total",
		"requests shed by the router's health-scaled inflight cap")
	obsNoReplica = obs.NewCounter("hdface_fleet_no_replica_total",
		"requests that found no available replica")
	obsEjections = obs.NewCounter("hdface_fleet_ejections_total",
		"replicas ejected after consecutive probe failures")
	obsRejoins = obs.NewCounter("hdface_fleet_rejoins_total",
		"ejected replicas rejoined after consecutive probe successes")
	obsBreakerOpens = obs.NewCounter("hdface_fleet_breaker_opens_total",
		"circuit breakers opened by consecutive request failures")
	obsBreakerCloses = obs.NewCounter("hdface_fleet_breaker_closes_total",
		"circuit breakers re-closed after a successful half-open trial")
)

// Config parameterises a Router. Zero values take the documented
// defaults; only Replicas is mandatory.
type Config struct {
	// Replicas are the serve daemons' base URLs (e.g. http://10.0.0.1:8080).
	Replicas []string
	// Client performs all upstream requests (default: a dedicated client
	// with no global timeout — per-attempt contexts bound every call).
	Client *http.Client
	// ProbeInterval is the /healthz scrape period (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 1s).
	ProbeTimeout time.Duration
	// EjectAfter consecutive probe failures mark a replica unhealthy
	// (default 3); RejoinAfter consecutive successes bring it back
	// (default 2).
	EjectAfter, RejoinAfter int
	// BreakAfter consecutive request failures open a replica's circuit
	// breaker (default 3); after BreakerCooldown (default 2s) one
	// half-open trial request probes it.
	BreakAfter      int
	BreakerCooldown time.Duration
	// MaxAttempts bounds ordinary (non-hedge) attempts per request
	// (default 3); one extra launch is allowed for the hedge.
	MaxAttempts int
	// RetryBackoff is the base of the jittered exponential retry backoff
	// (default 5ms; attempt n waits ~ RetryBackoff * 2^(n-1) * [0.5, 1.5)).
	RetryBackoff time.Duration
	// HedgeQuantile of the rolling per-path latency window arms the hedge
	// timer (default 0.95); hedging stays off until HedgeMinSamples
	// latencies have been observed (default 20). Only idempotent paths
	// (/predict, /detect) hedge — duplicated /feedback would double-count
	// evidence.
	HedgeQuantile   float64
	HedgeMinSamples int
	// MaxInflight is the router-wide concurrent-request cap with every
	// replica available (default 16 per replica); the live cap scales
	// with the available fraction, so losing half the fleet sheds half
	// the load instead of doubling the survivors' queues.
	MaxInflight int
	// MaxDeadline is the per-request budget when the client names none
	// (default 30s).
	MaxDeadline time.Duration
	// MaxBodyBytes bounds request bodies (default 16 MiB).
	MaxBodyBytes int64
	// MergeInterval enables the periodic feedback merge loop (0 =
	// disabled; merges can still be driven manually via MergeOnce).
	MergeInterval time.Duration
	// MergeLR scales merged delta evidence when folding it into the base
	// model (default 1, the training rule's own weight).
	MergeLR float64
	// Seed drives retry jitter and merge finalisation (default 1).
	Seed uint64
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Replicas) == 0 {
		return c, fmt.Errorf("fleet: Config.Replicas is required")
	}
	for _, r := range c.Replicas {
		u, err := url.Parse(r)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return c, fmt.Errorf("fleet: replica %q is not an absolute URL", r)
		}
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.RejoinAfter <= 0 {
		c.RejoinAfter = 2
	}
	if c.BreakAfter <= 0 {
		c.BreakAfter = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeMinSamples <= 0 {
		c.HedgeMinSamples = 20
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 16 * len(c.Replicas)
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.MergeLR == 0 {
		c.MergeLR = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// Breaker states.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

func breakerName(state int) string {
	switch state {
	case brOpen:
		return "open"
	case brHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// replica is the router's view of one serve daemon: probe-driven health,
// a request-driven circuit breaker, and traffic counters. Health and the
// breaker are deliberately separate detectors — the prober catches a
// daemon that stopped answering anything, the breaker catches one that
// still answers /healthz but fails real work.
type replica struct {
	idx int
	url string

	// healthy is owned by the prober (consecutive-failure ejection);
	// saturated mirrors the replica's own /healthz status.
	healthy   atomic.Bool
	saturated atomic.Bool
	probeFail int // prober goroutine only
	probeOK   int // prober goroutine only

	// Circuit breaker.
	bmu        sync.Mutex
	brState    int
	brFails    int
	brOpenedAt time.Time
	brTrial    bool // a half-open trial request is in flight

	served, failed, inflight atomic.Int64

	upGauge *obs.Gauge
}

// available reports whether the picker may send this replica a request:
// probe-healthy and breaker not blocking. It does not claim the half-open
// trial — acquire does.
func (rp *replica) available(now time.Time, cooldown time.Duration) bool {
	if !rp.healthy.Load() {
		return false
	}
	rp.bmu.Lock()
	defer rp.bmu.Unlock()
	switch rp.brState {
	case brClosed:
		return true
	case brOpen:
		return now.Sub(rp.brOpenedAt) >= cooldown
	default: // half-open: only the single trial slot
		return !rp.brTrial
	}
}

// acquire claims the right to send one request, transitioning an expired
// open breaker to half-open and claiming its trial slot; trial reports
// whether the claim holds that slot.
func (rp *replica) acquire(now time.Time, cooldown time.Duration) (ok, trial bool) {
	if !rp.healthy.Load() {
		return false, false
	}
	rp.bmu.Lock()
	defer rp.bmu.Unlock()
	switch rp.brState {
	case brClosed:
		return true, false
	case brOpen:
		if now.Sub(rp.brOpenedAt) < cooldown {
			return false, false
		}
		rp.brState = brHalfOpen
		rp.brTrial = true
		return true, true
	default:
		if rp.brTrial {
			return false, false
		}
		rp.brTrial = true
		return true, true
	}
}

// release frees a half-open trial slot without a verdict: the attempt
// holding it was abandoned, which says nothing about the replica.
func (rp *replica) release() {
	rp.bmu.Lock()
	defer rp.bmu.Unlock()
	if rp.brState == brHalfOpen {
		rp.brTrial = false
	}
}

// report feeds one attempt outcome into the breaker.
func (rp *replica) report(success bool, breakAfter int, now time.Time) {
	rp.bmu.Lock()
	defer rp.bmu.Unlock()
	if rp.brState == brHalfOpen {
		rp.brTrial = false
		if success {
			rp.brState = brClosed
			rp.brFails = 0
			obsBreakerCloses.Inc()
		} else {
			rp.brState = brOpen
			rp.brOpenedAt = now
			obsBreakerOpens.Inc()
		}
		return
	}
	if success {
		rp.brFails = 0
		return
	}
	rp.brFails++
	if rp.brState == brClosed && rp.brFails >= breakAfter {
		rp.brState = brOpen
		rp.brOpenedAt = now
		obsBreakerOpens.Inc()
	}
}

func (rp *replica) breakerState() string {
	rp.bmu.Lock()
	defer rp.bmu.Unlock()
	return breakerName(rp.brState)
}

// latWindow is a rolling per-path latency ring feeding the hedge timer.
type latWindow struct {
	mu   sync.Mutex
	buf  [256]float64 // seconds
	n    int
	pos  int
	sort []float64
}

func (w *latWindow) observe(seconds float64) {
	w.mu.Lock()
	w.buf[w.pos] = seconds
	w.pos = (w.pos + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// quantile returns the nearest-rank q quantile, or (0, false) with fewer
// than minSamples observations.
func (w *latWindow) quantile(q float64, minSamples int) (time.Duration, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < minSamples {
		return 0, false
	}
	w.sort = append(w.sort[:0], w.buf[:w.n]...)
	// Insertion sort: n <= 256 and the window is nearly sorted between
	// calls is not guaranteed, but the cost is still trivial next to a
	// network round trip.
	for i := 1; i < len(w.sort); i++ {
		for j := i; j > 0 && w.sort[j] < w.sort[j-1]; j-- {
			w.sort[j], w.sort[j-1] = w.sort[j-1], w.sort[j]
		}
	}
	idx := int(q * float64(len(w.sort)))
	if idx >= len(w.sort) {
		idx = len(w.sort) - 1
	}
	return time.Duration(w.sort[idx] * float64(time.Second)), true
}

// Router fans client requests across replicas. Create with New, serve its
// Handler, Close when done.
type Router struct {
	cfg      Config
	replicas []*replica

	inflight atomic.Int64

	jmu sync.Mutex
	rng *hv.RNG // retry jitter

	latMu sync.Mutex
	lats  map[string]*latWindow

	merger *merge // nil until first merge; see merge.go
	mergeM sync.Mutex

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// New validates the config and starts the prober (and, with MergeInterval
// set, the merge loop).
func New(cfg Config) (*Router, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	obs.Enable()
	trace.Enable()
	r := &Router{
		cfg:  cfg,
		rng:  hv.NewRNG(cfg.Seed ^ 0xf1ee7),
		lats: make(map[string]*latWindow),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i, u := range cfg.Replicas {
		rp := &replica{
			idx: i,
			url: u,
			upGauge: obs.NewGauge(
				fmt.Sprintf("hdface_fleet_replica_up{replica=%q}", strconv.Itoa(i)),
				"replica availability as seen by the router's prober"),
		}
		// Start optimistic: the first probe round corrects within one
		// interval, and a cold router should not shed its first requests.
		rp.healthy.Store(true)
		rp.upGauge.Set(1)
		r.replicas = append(r.replicas, rp)
	}
	go r.run()
	return r, nil
}

// Close stops the prober and merge loops.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.stop) })
	<-r.done
}

// run is the router's background loop: health probes every ProbeInterval,
// merges every MergeInterval.
func (r *Router) run() {
	defer close(r.done)
	probe := time.NewTicker(r.cfg.ProbeInterval)
	defer probe.Stop()
	var mergeC <-chan time.Time
	if r.cfg.MergeInterval > 0 {
		mt := time.NewTicker(r.cfg.MergeInterval)
		defer mt.Stop()
		mergeC = mt.C
	}
	for {
		select {
		case <-r.stop:
			return
		case <-probe.C:
			r.probeAll()
		case <-mergeC:
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.MergeInterval)
			_, _ = r.MergeOnce(ctx)
			cancel()
		}
	}
}

// probeAll scrapes every replica's /healthz concurrently and applies the
// ejection/rejoin state machine.
func (r *Router) probeAll() {
	var wg sync.WaitGroup
	for _, rp := range r.replicas {
		wg.Add(1)
		go func(rp *replica) {
			defer wg.Done()
			r.probe(rp)
		}(rp)
	}
	wg.Wait()
}

func (r *Router) probe(rp *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	defer cancel()
	ok, saturated := false, false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rp.url+"/healthz", nil)
	if err == nil {
		resp, err := r.cfg.Client.Do(req)
		if err == nil {
			var h struct {
				Status string `json:"status"`
			}
			if resp.StatusCode == http.StatusOK &&
				json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h) == nil {
				ok = true
				saturated = h.Status == "saturated"
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	rp.saturated.Store(ok && saturated)
	if ok {
		rp.probeFail = 0
		if !rp.healthy.Load() {
			rp.probeOK++
			if rp.probeOK >= r.cfg.RejoinAfter {
				rp.healthy.Store(true)
				rp.upGauge.Set(1)
				obsRejoins.Inc()
			}
		}
		return
	}
	rp.probeOK = 0
	rp.probeFail++
	if rp.healthy.Load() && rp.probeFail >= r.cfg.EjectAfter {
		rp.healthy.Store(false)
		rp.upGauge.Set(0)
		obsEjections.Inc()
	}
}

// availableCount returns how many replicas the picker could use right now.
func (r *Router) availableCount() int {
	now := time.Now()
	n := 0
	for _, rp := range r.replicas {
		if rp.available(now, r.cfg.BreakerCooldown) {
			n++
		}
	}
	return n
}

// pick chooses the next replica for an attempt: available, not yet tried
// by this request if possible, preferring unsaturated replicas and
// breaking ties by lowest inflight. Returns nil when nothing is
// acquirable; trial reports whether the pick holds a half-open trial slot.
func (r *Router) pick(tried map[*replica]bool) (*replica, bool) {
	now := time.Now()
	var best *replica
	bestKey := [3]int64{1 << 30, 1 << 30, 1 << 30} // tried, saturated, inflight
	for _, rp := range r.replicas {
		if !rp.available(now, r.cfg.BreakerCooldown) {
			continue
		}
		key := [3]int64{0, 0, rp.inflight.Load()}
		if tried[rp] {
			key[0] = 1
		}
		if rp.saturated.Load() {
			key[1] = 1
		}
		if key[0] < bestKey[0] || (key[0] == bestKey[0] &&
			(key[1] < bestKey[1] || (key[1] == bestKey[1] && key[2] < bestKey[2]))) {
			best, bestKey = rp, key
		}
	}
	if best == nil {
		return nil, false
	}
	ok, trial := best.acquire(now, r.cfg.BreakerCooldown)
	if !ok {
		return nil, false
	}
	return best, trial
}

// window returns the rolling latency window for one path.
func (r *Router) window(path string) *latWindow {
	r.latMu.Lock()
	defer r.latMu.Unlock()
	w := r.lats[path]
	if w == nil {
		w = &latWindow{}
		r.lats[path] = w
	}
	return w
}

// jitter returns d scaled by a uniform factor in [0.5, 1.5).
func (r *Router) jitter(d time.Duration) time.Duration {
	r.jmu.Lock()
	f := 0.5 + r.rng.Float64()
	r.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// outcome is one finished replica attempt.
type outcome struct {
	rp      *replica
	status  int
	header  http.Header
	body    []byte
	err     error
	latency time.Duration
	hedge   bool
	trial   bool // the attempt held its replica's half-open trial slot
}

// usable reports whether an outcome should be returned to the client.
// 2xx/3xx succeed; 4xx are the client's own fault and retrying another
// replica would return the same answer; 503 means that replica shed the
// request — another may have room; 5xx and transport errors fail over.
func (o outcome) usable() bool {
	return o.err == nil && o.status < 500 && o.status != http.StatusServiceUnavailable
}

// hedgeable paths are idempotent reads; a duplicated /feedback would feed
// the same evidence twice.
func hedgeable(path string) bool {
	return path == "/predict" || path == "/detect"
}

// forward proxies one request with retries, hedging and failover. The
// whole body is already in hand (bounded read at the handler) so every
// attempt can resend it.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, path string, body []byte) {
	// Health-scaled load shedding: with half the fleet gone, admit half
	// the load. Queued-up retries on survivors are how a partial outage
	// becomes a total one.
	avail := r.availableCount()
	if avail == 0 {
		obsNoReplica.Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "no available replicas")
		return
	}
	cap64 := int64(r.cfg.MaxInflight*avail) / int64(len(r.replicas))
	if cap64 < 1 {
		cap64 = 1
	}
	if r.inflight.Add(1) > cap64 {
		r.inflight.Add(-1)
		obsShed.Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "router saturated (%d available replicas)", avail)
		return
	}
	defer r.inflight.Add(-1)
	obsRequests.Inc()

	// The client's budget governs everything downstream: per-attempt
	// deadlines derive from what remains of it.
	budget := r.cfg.MaxDeadline
	if q := req.URL.Query().Get("deadline"); q != "" {
		if d, err := time.ParseDuration(q); err == nil && d > 0 && d < budget {
			budget = d
		}
	}
	ctx, cancel := context.WithTimeout(req.Context(), budget)
	defer cancel()

	tr := trace.New("route"+path, req.Header.Get(trace.Header))
	if tr != nil {
		w.Header().Set(trace.Header, tr.ID())
	}
	defer tr.Finish()

	win := r.window(path)
	results := make(chan outcome, r.cfg.MaxAttempts+2)
	tried := make(map[*replica]bool)
	var cancels []context.CancelFunc
	launches, outstanding := 0, 0
	defer func() {
		for _, c := range cancels {
			c()
		}
		// Attempts still out lost to another answer or outlived the
		// budget: once they end, free any trial slot they hold without a
		// breaker verdict.
		if n := outstanding; n > 0 {
			go func() {
				for ; n > 0; n-- {
					if out := <-results; out.trial {
						out.rp.release()
					}
				}
			}()
		}
	}()

	launch := func(hedge bool) bool {
		remaining := time.Until(deadlineOf(ctx))
		if remaining <= 0 {
			return false
		}
		rp, trial := r.pick(tried)
		if rp == nil {
			return false
		}
		tried[rp] = true
		// Deadline propagation: tell the replica how much budget is left,
		// shaved so its reply can still cross the wire inside ours.
		attemptBudget := remaining - remaining/10
		actx, acancel := context.WithTimeout(ctx, remaining)
		cancels = append(cancels, acancel)
		launches++
		outstanding++
		rp.inflight.Add(1)
		obsAttempts.Inc()
		if hedge {
			obsHedges.Inc()
		}
		go func() {
			start := time.Now()
			status, header, respBody, err := r.attempt(actx, rp, req.Method, path,
				req.URL.Query(), attemptBudget, body, tr)
			rp.inflight.Add(-1)
			results <- outcome{rp: rp, status: status, header: header, body: respBody,
				err: err, latency: time.Since(start), hedge: hedge, trial: trial}
		}()
		return true
	}

	if !launch(false) {
		obsNoReplica.Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "no available replicas")
		return
	}

	var hedgeC, retryC <-chan time.Time
	var hedgeT, retryT *time.Timer
	defer func() {
		if hedgeT != nil {
			hedgeT.Stop()
		}
		if retryT != nil {
			retryT.Stop()
		}
	}()
	armHedge := func() {
		if !hedgeable(path) || launches > r.cfg.MaxAttempts {
			return
		}
		if p, ok := win.quantile(r.cfg.HedgeQuantile, r.cfg.HedgeMinSamples); ok {
			hedgeT = time.NewTimer(p)
			hedgeC = hedgeT.C
		}
	}
	armHedge()

	retries := 0
	for {
		select {
		case out := <-results:
			outstanding--
			if out.usable() {
				out.rp.report(out.status < 500, r.cfg.BreakAfter, time.Now())
				out.rp.served.Add(1)
				if out.status == http.StatusOK {
					win.observe(out.latency.Seconds())
				}
				if out.hedge {
					obsHedgeWins.Inc()
				}
				if tr != nil {
					tr.SetAttr("replica", out.rp.url)
					tr.SetAttr("attempts", strconv.Itoa(launches))
				}
				copyResponse(w, out)
				return
			}
			out.rp.report(false, r.cfg.BreakAfter, time.Now())
			out.rp.failed.Add(1)
			// Failover: relaunch after a jittered backoff unless the
			// attempt budget is spent. If other attempts are still in
			// flight (a hedge), wait for them instead of giving up.
			if launches <= r.cfg.MaxAttempts && retryC == nil {
				retries++
				obsRetries.Inc()
				backoff := r.jitter(r.cfg.RetryBackoff << (retries - 1))
				retryT = time.NewTimer(backoff)
				retryC = retryT.C
			} else if outstanding == 0 && retryC == nil {
				tr.SetError(true)
				writeErr(w, http.StatusBadGateway, "all replicas failed (last: %s)", out.errString())
				return
			}
		case <-hedgeC:
			hedgeC = nil
			if launches <= r.cfg.MaxAttempts {
				launch(true)
			}
		case <-retryC:
			retryC = nil
			if retryT != nil {
				retryT.Stop()
				retryT = nil
			}
			if !launch(false) && outstanding == 0 {
				tr.SetError(true)
				writeErr(w, http.StatusServiceUnavailable, "no available replicas after failover")
				return
			}
		case <-ctx.Done():
			tr.SetError(true)
			writeErr(w, http.StatusGatewayTimeout, "request budget exhausted after %d attempts", launches)
			return
		}
	}
}

func (o outcome) errString() string {
	if o.err != nil {
		return o.err.Error()
	}
	return fmt.Sprintf("status %d", o.status)
}

// attempt performs one upstream request, rewriting the deadline parameter
// to the remaining budget and threading the trace ID so the replica's
// spans stitch to the router's.
func (r *Router) attempt(ctx context.Context, rp *replica, method, path string,
	query url.Values, budget time.Duration, body []byte, tr *trace.Trace) (int, http.Header, []byte, error) {
	q := url.Values{}
	for k, vs := range query {
		if k == "deadline" {
			continue
		}
		q[k] = vs
	}
	if path == "/detect" && budget > 0 {
		q.Set("deadline", budget.String())
	}
	u := rp.url + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if tr != nil {
		req.Header.Set(trace.Header, tr.ID())
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, r.cfg.MaxBodyBytes))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

// deadlineOf returns ctx's deadline; forward always sets one.
func deadlineOf(ctx context.Context) time.Time {
	d, ok := ctx.Deadline()
	if !ok {
		return time.Now().Add(time.Hour)
	}
	return d
}

// copyResponse relays a winning attempt to the client.
func copyResponse(w http.ResponseWriter, out outcome) {
	if ct := out.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := out.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(out.status)
	w.Write(out.body)
}
