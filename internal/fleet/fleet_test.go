package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/fault"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/online"
	"hdface/internal/registry"
	"hdface/internal/serve"
)

// trainedPipeline builds a small binary face/non-face pipeline, mirroring
// the serve package's test helper so every replica can be loaded from one
// snapshot and score byte-identically.
func trainedPipeline(t *testing.T) *hdface.Pipeline {
	t.Helper()
	r := hv.NewRNG(31)
	var imgs []*imgproc.Image
	var labels []int
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			imgs = append(imgs, dataset.RenderFace(48, 48, dataset.Emotion(r.Intn(7)), r))
			labels = append(labels, 1)
		} else {
			imgs = append(imgs, dataset.RenderNonFace(48, 48, r))
			labels = append(labels, 0)
		}
	}
	p := hdface.New(hdface.Config{D: 512, Seed: 17, WorkingSize: 48, Workers: 1, Stride: 3})
	if err := p.Fit(imgs, labels, 2); err != nil {
		t.Fatal(err)
	}
	return p
}

// pipelineTwin loads an independent copy of p, so every replica owns its
// own (single-threaded) pipeline while sharing the identical model.
func pipelineTwin(t *testing.T, p *hdface.Pipeline) *hdface.Pipeline {
	t.Helper()
	var buf bytes.Buffer
	if err := p.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := hdface.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func pgmBytes(t *testing.T, img *imgproc.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := img.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testReplica is one serve daemon plus a kill switch that makes its HTTP
// front end fail without tearing the listener down (so recovery is
// testable) — plus ts.Close() for the connection-refused flavour.
type testReplica struct {
	srv  *serve.Server
	ts   *httptest.Server
	dead atomic.Bool
}

func (tr *testReplica) kill()   { tr.dead.Store(true) }
func (tr *testReplica) revive() { tr.dead.Store(false) }

// newTestReplica boots a serve daemon from the shared pipeline. online
// non-nil enables the feedback plane with that replica name.
func newTestReplica(t *testing.T, p *hdface.Pipeline, replicaName string) *testReplica {
	t.Helper()
	rep := &testReplica{}
	cfg := serve.Config{Pipeline: pipelineTwin(t, p), MaxBatch: 2, MaxQueue: 64}
	if replicaName != "" {
		reg, err := registry.Open("", 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Registry = reg
		tr, err := online.New(online.Config{
			Registry: reg, Pipe: cfg.Pipeline.Config(),
			Replica: replicaName, DeltaOnly: true,
			HoldoutEvery: 1 << 30, // keep holdout empty: adopt-always in tests that push
			WindowSize:   8,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Online = tr
		t.Cleanup(tr.Close)
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep.srv = s
	inner := s.Handler()
	rep.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rep.dead.Load() {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		rep.ts.Close()
		s.Close()
	})
	return rep
}

func newTestRouter(t *testing.T, cfg Config, reps ...*testReplica) *Router {
	t.Helper()
	for _, rp := range reps {
		cfg.Replicas = append(cfg.Replicas, rp.ts.URL)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 100 * time.Millisecond
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func postPGM(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "image/x-portable-graymap", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestRouterFailoverKillMidLoad is the satellite contract: kill a replica
// mid-load and the clients see zero failures, every score byte-identical
// to the survivors' (all replicas serve the same snapshot), and after the
// replica recovers its breaker re-closes and it serves again.
func TestRouterFailoverKillMidLoad(t *testing.T) {
	p := trainedPipeline(t)
	r0 := newTestReplica(t, p, "")
	r1 := newTestReplica(t, p, "")
	router := newTestRouter(t, Config{MaxAttempts: 4}, r0, r1)
	rt := httptest.NewServer(router.Handler())
	defer rt.Close()

	img := pgmBytes(t, dataset.RenderFace(48, 48, 0, hv.NewRNG(5)))

	// Reference response through the intact fleet.
	code, refBody := postPGM(t, rt.URL+"/predict", img)
	if code != http.StatusOK {
		t.Fatalf("warm-up predict: status %d (%s)", code, refBody)
	}
	var ref struct {
		Label  int       `json:"label"`
		Scores []float64 `json:"scores"`
	}
	if err := json.Unmarshal(refBody, &ref); err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 4, 20
	var killOnce sync.Once
	var failures atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if c == 0 && i == perClient/2 {
					killOnce.Do(r0.kill) // mid-load failure
				}
				code, body := postPGM(t, rt.URL+"/predict", img)
				if code != http.StatusOK {
					failures.Add(1)
					t.Errorf("client %d req %d: status %d (%s)", c, i, code, body)
					continue
				}
				var got struct {
					Label  int       `json:"label"`
					Scores []float64 `json:"scores"`
				}
				if err := json.Unmarshal(body, &got); err != nil {
					failures.Add(1)
					t.Errorf("client %d req %d: %v", c, i, err)
					continue
				}
				if got.Label != ref.Label || len(got.Scores) != len(ref.Scores) {
					t.Errorf("client %d req %d: label/scores diverged: %+v vs %+v", c, i, got, ref)
					continue
				}
				for k := range got.Scores {
					if got.Scores[k] != ref.Scores[k] {
						t.Errorf("client %d req %d: score[%d] %v != %v", c, i, k, got.Scores[k], ref.Scores[k])
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d client-visible failures with one replica killed", failures.Load())
	}

	// The prober must eject the dead replica and report degraded-but-serving.
	waitFor(t, 2*time.Second, func() bool {
		h := routerHealth(t, rt.URL)
		return h.Status == "degraded" && h.Available == 1
	}, "router never reported degraded after the kill")

	// Recovery: revive the replica; probes rejoin it, the breaker's
	// half-open trial succeeds, and it serves traffic again.
	r0.revive()
	waitFor(t, 2*time.Second, func() bool {
		h := routerHealth(t, rt.URL)
		return h.Status == "ok" && h.Available == 2
	}, "router never recovered after the replica revived")
	servedBefore := routerHealth(t, rt.URL).Replicas[0].Served
	waitFor(t, 2*time.Second, func() bool {
		if code, _ := postPGM(t, rt.URL+"/predict", img); code != http.StatusOK {
			return false
		}
		h := routerHealth(t, rt.URL)
		return h.Replicas[0].Served > servedBefore && h.Replicas[0].Breaker == "closed"
	}, "revived replica never took traffic with a closed breaker")
}

func routerHealth(t *testing.T, base string) HealthResponse {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestRouterConnectionRefused covers the harder kill: the listener is
// gone entirely (ts.Close), so attempts fail at dial time, not with 5xx.
func TestRouterConnectionRefused(t *testing.T) {
	p := trainedPipeline(t)
	r0 := newTestReplica(t, p, "")
	r1 := newTestReplica(t, p, "")
	router := newTestRouter(t, Config{MaxAttempts: 4}, r0, r1)
	rt := httptest.NewServer(router.Handler())
	defer rt.Close()

	img := pgmBytes(t, dataset.RenderFace(48, 48, 0, hv.NewRNG(6)))
	if code, body := postPGM(t, rt.URL+"/predict", img); code != http.StatusOK {
		t.Fatalf("warm-up: status %d (%s)", code, body)
	}
	r0.ts.Close() // hard kill: connection refused from here on
	for i := 0; i < 20; i++ {
		if code, body := postPGM(t, rt.URL+"/predict", img); code != http.StatusOK {
			t.Fatalf("request %d after hard kill: status %d (%s)", i, code, body)
		}
	}
}

// TestRouterShedsWhenDown: with every replica gone the router answers 503
// with a Retry-After hint instead of hanging or 502-ing.
func TestRouterShedsWhenDown(t *testing.T) {
	p := trainedPipeline(t)
	r0 := newTestReplica(t, p, "")
	router := newTestRouter(t, Config{EjectAfter: 1, MaxAttempts: 2}, r0)
	rt := httptest.NewServer(router.Handler())
	defer rt.Close()

	img := pgmBytes(t, dataset.RenderFace(48, 48, 0, hv.NewRNG(7)))
	r0.kill()
	// Let the prober eject it (EjectAfter=1, 20ms interval).
	waitFor(t, 2*time.Second, func() bool {
		return routerHealth(t, rt.URL).Available == 0
	}, "prober never ejected the dead replica")

	resp, err := http.Post(rt.URL+"/predict", "image/x-portable-graymap", bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-dead fleet: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	h := routerHealth(t, rt.URL)
	if h.Status != "down" {
		t.Fatalf("healthz status %q, want down", h.Status)
	}
}

// TestRouterSurvivesNetworkChaos runs client load through a router whose
// upstream transport injects 5xx bursts and latency spikes: retries and
// failover must keep every client request at 200.
func TestRouterSurvivesNetworkChaos(t *testing.T) {
	p := trainedPipeline(t)
	r0 := newTestReplica(t, p, "")
	r1 := newTestReplica(t, p, "")
	inj := fault.NewNetInjector(fault.NetPlan{
		ErrorP: 0.15, ErrorBurst: 2,
		LatencyP: 0.1, Latency: 5 * time.Millisecond,
		Seed: 41,
	}, nil)
	router := newTestRouter(t, Config{
		Client: &http.Client{Transport: inj},
		// The chaos lives in the shared transport, not in either replica,
		// so breaker/ejection verdicts against a replica would be wrong —
		// disable both and let retries carry every request through.
		MaxAttempts: 6,
		BreakAfter:  1 << 30,
		EjectAfter:  1 << 30,
	}, r0, r1)
	rt := httptest.NewServer(router.Handler())
	defer rt.Close()

	img := pgmBytes(t, dataset.RenderFace(48, 48, 0, hv.NewRNG(12)))
	for i := 0; i < 60; i++ {
		if code, body := postPGM(t, rt.URL+"/predict", img); code != http.StatusOK {
			t.Fatalf("request %d under chaos: status %d (%s)", i, code, body)
		}
	}
	if obsRetries.Value() == 0 {
		t.Fatal("chaos plan injected no faults worth retrying — test is vacuous")
	}
}

// TestRouterHedging: a replica with a latency spike is beaten by the
// hedge firing after the rolling p95.
func TestRouterHedging(t *testing.T) {
	var slow atomic.Bool
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	defer fast.Close()
	laggy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slow.Load() && r.URL.Path == "/predict" {
			time.Sleep(300 * time.Millisecond)
		}
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	defer laggy.Close()

	router, err := New(Config{
		Replicas:        []string{laggy.URL, fast.URL},
		ProbeInterval:   20 * time.Millisecond,
		HedgeMinSamples: 8,
		MaxAttempts:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rt := httptest.NewServer(router.Handler())
	defer rt.Close()

	// Warm the latency window with fast responses.
	for i := 0; i < 16; i++ {
		if code, _ := postPGM(t, rt.URL+"/predict", []byte("x")); code != http.StatusOK {
			t.Fatalf("warm-up %d failed", i)
		}
	}
	before := obsHedges.Value()
	slow.Store(true)
	// Drive requests until one lands on the laggy replica and is hedged
	// past. Each must finish far faster than the 300ms stall.
	for i := 0; i < 10; i++ {
		start := time.Now()
		code, _ := postPGM(t, rt.URL+"/predict", []byte("x"))
		if code != http.StatusOK {
			t.Fatalf("hedged request %d: status %d", i, code)
		}
		if lat := time.Since(start); lat > 250*time.Millisecond {
			t.Fatalf("request %d took %v; hedge never rescued it", i, lat)
		}
	}
	if obsHedges.Value() == before {
		t.Fatal("no hedge ever fired against the laggy replica")
	}
}

// TestRouterHedgeReleasesLoser: the attempt a hedge beats is abandoned,
// not leaked. Its replica's inflight count returns to zero and the
// half-open trial it held is freed without a breaker verdict, so the
// replica serves again once it is fast.
func TestRouterHedgeReleasesLoser(t *testing.T) {
	var slow, failing atomic.Bool
	laggy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/predict" {
			if failing.Load() {
				http.Error(w, "injected outage", http.StatusInternalServerError)
				return
			}
			if slow.Load() {
				time.Sleep(300 * time.Millisecond)
			}
		}
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	defer laggy.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	defer fast.Close()

	router, err := New(Config{
		Replicas:        []string{laggy.URL, fast.URL},
		ProbeInterval:   20 * time.Millisecond,
		BreakAfter:      1,
		BreakerCooldown: 50 * time.Millisecond,
		RetryBackoff:    time.Millisecond,
		HedgeMinSamples: 8,
		MaxAttempts:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rt := httptest.NewServer(router.Handler())
	defer rt.Close()
	predict := func() {
		t.Helper()
		if code, body := postPGM(t, rt.URL+"/predict", []byte("x")); code != http.StatusOK {
			t.Fatalf("predict: status %d (%s)", code, body)
		}
	}
	laggyHealth := func() ReplicaHealth { return routerHealth(t, rt.URL).Replicas[0] }

	// Warm the latency window. On an idle fleet the picker prefers the
	// first replica, the laggy one.
	for i := 0; i < 16; i++ {
		predict()
	}
	// One failure opens the laggy replica's breaker; the request fails
	// over to the fast one.
	failing.Store(true)
	waitFor(t, 2*time.Second, func() bool {
		predict()
		return laggyHealth().Breaker == "open"
	}, "the laggy replica's breaker never opened")
	failing.Store(false)

	// After the cooldown the next request the laggy replica gets is its
	// half-open trial. It stalls, and the hedge to the fast replica wins,
	// leaving the breaker half-open with no verdict.
	slow.Store(true)
	before := obsHedges.Value()
	waitFor(t, 2*time.Second, func() bool {
		predict()
		return obsHedges.Value() > before && laggyHealth().Breaker == "half-open"
	}, "no hedge fired against the stalled trial")
	waitFor(t, 2*time.Second, func() bool {
		return laggyHealth().Inflight == 0
	}, "the hedged-past attempt never released its replica's inflight count")

	// Fast again, the laggy replica must take traffic and close its breaker.
	slow.Store(false)
	served := laggyHealth().Served
	waitFor(t, 2*time.Second, func() bool {
		predict()
		h := laggyHealth()
		return h.Served > served && h.Breaker == "closed"
	}, "the hedged-past replica never served again")
}
