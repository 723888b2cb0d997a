package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"hdface/internal/hv"
	"hdface/internal/obs/trace"
	"hdface/internal/serve"
)

// workloads names the benchmark's workloads in run order.
var workloads = []string{"predict", "detect", "stream", "mixed"}

// Number of daemon boots per run; setup_s is their median.
const boots = 5

// rssEvery is the sampling period of the daemon's resident set.
const rssEvery = 100 * time.Millisecond

// runConfig is what one workload run needs.
type runConfig struct {
	Workload string
	Seed     uint64
	Measure  time.Duration // measured traffic window
	Trace    bool          // also run the traced replay and scrape the daemon
	Bin      string        // hdface binary
	Out      string        // directory for logs, traces and results
	Fx       *fixture
	Procs    int // CPUs: daemon GOMAXPROCS and workers, and the connection bound
}

// run accumulates one workload run's metrics, counts and check failures.
type run struct {
	rc        runConfig
	m         metricSet
	problems  []string // failed output checks
	invalid   []string // failed validity gates: too few samples, late generator
	attempted int
	failed    int // non-2xx, transport errors, stream error events
	degraded  int
	flags     []string // daemon flags of the measured server
	replay    *replayInputs
	trace     *traceFile
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) invalidate(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

// ok reports whether the run passed every output check and validity gate.
func (r *run) ok() bool { return len(r.problems) == 0 && len(r.invalid) == 0 }

// runWorkload executes one workload end to end.
func runWorkload(rc runConfig) *run {
	r := &run{rc: rc, m: metricSet{}}
	var err error
	switch rc.Workload {
	case "predict":
		err = r.predict()
	case "detect":
		err = r.detect()
	case "stream":
		err = r.stream()
	case "mixed":
		err = r.mixed()
	default:
		err = fmt.Errorf("unknown workload %q", rc.Workload)
	}
	if err != nil {
		r.problem("%s: %v", rc.Workload, err)
		return r
	}
	if r.attempted > 0 {
		r.m.set("failed_frac", float64(r.failed)/float64(r.attempted), r.attempted)
		r.m.set("degraded_frac", float64(r.degraded)/float64(r.attempted), r.attempted)
	}
	if rc.Trace {
		if err := r.replayLayers(); err != nil {
			r.problem("replay: %v", err)
		}
	}
	return r
}

func (r *run) streamFlags() []string {
	return []string{"-stride", "8", "-emotion-model", r.rc.Fx.Emotion, "-frame-deadline", "10s"}
}

// boot starts the daemon `boots` times. Each boot is timed from exec
// through /healthz 200 to a first answer from warm (one request to every
// endpoint the workload uses); the first boots are stopped again and the
// last is returned for measurement. setup_s is the median boot.
func (r *run) boot(flags []string, c *http.Client, warm func(s *server) error) (*server, error) {
	r.flags = append([]string{"-snapshot", r.rc.Fx.Snapshot, "-workers", strconv.Itoa(r.rc.Procs)}, flags...)
	var setup []float64
	for b := 0; b < boots; b++ {
		t := time.Now()
		s, err := startServer(r.rc.Bin, r.flags, r.rc.Procs, filepath.Join(r.rc.Out, fmt.Sprintf("server-%s-%d.log", r.rc.Workload, b)))
		if err != nil {
			return nil, err
		}
		if err := s.waitHealthy(c); err != nil {
			s.stop()
			return nil, err
		}
		if err := warm(s); err != nil {
			s.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setup = append(setup, time.Since(t).Seconds())
		if b == boots-1 {
			r.m.set("setup_s", median(setup), len(setup))
			return s, nil
		}
		if err := s.stop(); err != nil {
			return nil, fmt.Errorf("stop boot %d: %w", b, err)
		}
	}
	panic("unreachable")
}

// window is what the daemon reported around one measured traffic window.
type window struct {
	start, end time.Time
	m0, m1     map[string]float64 // /metrics before and after (trace runs)
	cpu        time.Duration      // daemon CPU over the window
	selfCPU    time.Duration      // bench process CPU over the window
	traces     map[string]trace.ExportTrace
}

// observe runs traffic against s, recording the daemon's median resident
// set over the window, and stops it. In trace runs it also scrapes /metrics around the window and
// polls /debug/traces of the workload's headline kind once a second (the
// daemon keeps only its latest 256 traces); untraced runs make no request
// beyond the workload's own traffic.
func (r *run) observe(s *server, c *http.Client, kind string, traffic func()) (*window, error) {
	w := &window{traces: map[string]trace.ExportTrace{}}
	var err error
	stopPoll := make(chan struct{})
	var polled sync.WaitGroup
	var pollMu sync.Mutex
	poll := func() {
		ts, err := s.traces(c, kind)
		if err != nil {
			return
		}
		pollMu.Lock()
		for _, t := range ts {
			w.traces[t.TraceID] = t
		}
		pollMu.Unlock()
	}
	if r.rc.Trace {
		if w.m0, err = s.metrics(c); err != nil {
			return nil, err
		}
		polled.Add(1)
		go func() {
			defer polled.Done()
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					poll()
				}
			}
		}()
	}
	cpu0, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	self0, _ := procCPU(os.Getpid())
	// The daemon's resident set is sampled through the window: its peak
	// hangs on where a GC cycle happens to fall, its median does not.
	var rss []float64
	stopRSS := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopRSS:
				return
			case <-tick.C:
				if v, err := rssMB(s.pid()); err == nil {
					rss = append(rss, v)
				}
			}
		}
	}()
	w.start = time.Now()
	traffic()
	w.end = time.Now()
	close(stopRSS)
	<-sampled
	cpu1, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	self1, _ := procCPU(os.Getpid())
	w.cpu, w.selfCPU = cpu1-cpu0, self1-self0
	if r.rc.Trace {
		close(stopPoll)
		polled.Wait()
		poll()
		if w.m1, err = s.metrics(c); err != nil {
			return nil, err
		}
	}
	if len(rss) == 0 {
		return nil, errors.New("no resident-set sample of the daemon")
	}
	r.m.set("server_rss_mb", median(rss), len(rss))
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("stop measured server: %w", err)
	}
	return w, nil
}

// tailPct is the percentile tail_ms reports on every workload. Higher
// percentiles rest on a handful of requests and move by a quarter from run
// to run of the same seed on a shared two-core machine.
const tailPct = 90

// latencyMetrics records p50_ms and tail_ms (nearest-rank percentiles) over
// lat; failed requests count as +Inf (they miss any limit). A tail with
// fewer than minBeyond samples beyond it invalidates the run.
func (r *run) latencyMetrics(lat []float64) {
	p50, _ := percentile(lat, 50)
	t, beyond := percentile(lat, tailPct)
	r.m.set("p50_ms", p50, len(lat))
	r.m.set("tail_ms", t, len(lat))
	if beyond < minBeyond {
		r.invalidate("tail_ms is p%d over %d samples: %d beyond it, need %d", tailPct, len(lat), beyond, minBeyond)
	}
}

// lateness records generator health for an open loop: how far behind
// schedule arrivals were issued. More than 10ms at p99 invalidates the run.
func (r *run) lateness(late []time.Duration) {
	p99, _ := percentile(msAll(late), 99)
	r.m.set("gen.late_p99_ms", p99, len(late))
	if p99 > 10 {
		r.invalidate("generator ran late: p99 %.2fms > 10ms", p99)
	}
}

// predict: untenanted /predict of distinct crops. An open loop of Poisson
// arrivals at predictRate with at most Procs in flight for 3/4 of the
// window measures latency; a closed loop on Procs connections for the rest
// measures capacity.
func (r *run) predict() error {
	seed := r.rc.Seed
	open := r.rc.Measure * 3 / 4
	closed := r.rc.Measure - open
	sched := poissonSchedule(hv.NewRNG(subSeed(seed, 0x9e1)), predictRate, open)
	// The closed loop cycles through its own crops; the daemon caches no
	// answer, so a resent crop costs what a new one does, and rendering a
	// distinct crop for every closed-loop request would add seconds to the
	// run.
	const nClosed = 1024
	crops := makeCrops(seed, len(sched)+nClosed)
	warmCrop := makeCrops(subSeed(seed, 0x3a7), 1)[0]
	c := newClient(r.rc.Procs)
	s, err := r.boot(nil, c, func(s *server) error {
		_, err := predict(c, s.base, warmCrop.PGM, "")
		return err
	})
	if err != nil {
		return err
	}
	checked := make([]*serve.PredictResponse, min(64, len(sched)))
	var mu sync.Mutex
	answered, correct := 0, 0
	send := func(i int) bool {
		cr := crops[i]
		res, err := predict(c, s.base, cr.PGM, "")
		if err != nil {
			return false
		}
		mu.Lock()
		answered++
		if res.Label == cr.Label {
			correct++
		}
		if i < len(checked) {
			checked[i] = &res
		}
		mu.Unlock()
		return true
	}
	var or openResult
	var cr closedResult
	w, err := r.observe(s, c, "predict", func() {
		or = openLoop(time.Now(), sched, r.rc.Procs, send)
		cr = closedLoop(closed, r.rc.Procs, func(i int) bool {
			return send(len(sched) + i%nClosed)
		})
	})
	if err != nil {
		return err
	}
	var lat []float64
	var svc []float64
	for i := range sched {
		lat = append(lat, latOrInf(or.Lat[i], or.OK[i]))
		svc = append(svc, ms(or.Svc[i]))
		if !or.OK[i] {
			r.failed++
		}
	}
	r.attempted = len(sched) + cr.Sent
	r.failed += cr.Failed
	r.m.set("throughput", float64(cr.Done)/closed.Seconds(), cr.Done)
	r.latencyMetrics(lat)
	r.lateness(or.Late)
	r.m.set("accuracy", float64(correct)/math.Max(1, float64(answered)), answered)
	r.checkPredict(crops, checked)
	p50svc, _ := percentile(svc, 50)
	r.serverLayers(w, answered, p50svc)
	r.replay = &replayInputs{crops: crops[:min(len(crops), replayCrops)]}
	return nil
}

// detect: closed loop of /detect over the scene pool on Procs connections,
// with the daemon's default sweep (stride win/2, scales {1,2}).
func (r *run) detect() error {
	seed := r.rc.Seed
	scenes := makeScenes(seed, poolScenes)
	warmScene := makeScenes(subSeed(seed, 0x3a7), 2)[1]
	c := newClient(r.rc.Procs)
	s, err := r.boot(nil, c, func(s *server) error {
		_, err := detectReq(c, s.base, warmScene.PGM)
		return err
	})
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var answers []detectAnswer
	var cr closedResult
	w, err := r.observe(s, c, "detect", func() {
		cr = closedLoop(r.rc.Measure, r.rc.Procs, func(i int) bool {
			k := i % len(scenes)
			res, err := detectReq(c, s.base, scenes[k].PGM)
			if err != nil {
				return false
			}
			mu.Lock()
			answers = append(answers, detectAnswer{k, res})
			mu.Unlock()
			return true
		})
	})
	if err != nil {
		return err
	}
	r.attempted, r.failed = cr.Sent, cr.Failed
	first := make([]*serve.DetectResponse, len(scenes))
	for i := range answers {
		a := &answers[i]
		if a.res.Degraded {
			r.degraded++
		}
		if first[a.scene] == nil {
			first[a.scene] = &a.res
		}
	}
	r.m.set("throughput", float64(cr.Done)/r.rc.Measure.Seconds(), cr.Done)
	r.latencyMetrics(cr.Lat)
	r.m.set("detect_f1", detectF1(scenes, first), len(scenes))
	if err := r.checkDetect(scenes, answers); err != nil {
		return err
	}
	p50, _ := percentile(cr.Lat, 50)
	r.serverLayers(w, len(answers), p50)
	r.replay = &replayInputs{scenes: scenes[:replayScenes]}
	return nil
}

// laneB streams the clips back to back on one connection until end, and
// returns every clip run in order.
func laneB(c *http.Client, base string, clips []clip, end time.Time) []clipRun {
	var runs []clipRun
	for k := 0; time.Now().Before(end); k++ {
		i := k % len(clips)
		runs = append(runs, clipRun{clip: i, res: streamClip(c, base, clips[i].Frames, end)})
	}
	return runs
}

// clipRun is one POST /stream of clip index clip.
type clipRun struct {
	clip int
	res  streamResult
}

// streamOutcome folds clip runs into counts, latencies and identity F1,
// and checks every run: one frame event per frame sent, no error events.
func (r *run) streamOutcome(clips []clip, runs []clipRun) (frames int, lat []float64, idf1 float64) {
	var tp, fp, fn int
	for k, cr := range runs {
		res := cr.res
		r.attempted += res.Sent
		r.failed += res.Sent - len(res.Events) // frames never answered
		if res.Err != nil {
			r.problem("stream clip %s: %v", clips[cr.clip].Name, res.Err)
		}
		for i, ev := range res.Events {
			switch {
			case ev.Type != "frame":
				r.failed++
				r.problem("stream clip %s frame %d: %s event %q", clips[cr.clip].Name, i, ev.Type, ev.Error)
				lat = append(lat, math.Inf(1))
				continue
			case ev.Frame != i:
				r.problem("stream clip %s: event %d names frame %d", clips[cr.clip].Name, i, ev.Frame)
			}
			if ev.Degraded {
				r.degraded++
			}
			frames++
			lat = append(lat, ms(res.Lat[i]))
		}
		if len(res.Events) != res.Sent {
			r.problem("stream clip %s: %d events for %d frames", clips[cr.clip].Name, len(res.Events), res.Sent)
		}
		if k < len(clips) {
			rep := clipIDF1(clips[cr.clip], res.Events)
			tp, fp, fn = tp+rep.IDTP, fp+rep.IDFP, fn+rep.IDFN
		}
	}
	if tp+fp+fn > 0 {
		idf1 = 2 * float64(tp) / float64(2*tp+fp+fn)
	}
	return frames, lat, idf1
}

// stream: one connection streaming the four scenario clips back to back.
func (r *run) stream() error {
	clips := makeClips(r.rc.Seed, clipFrames, clipVariants)
	c := newClient(1)
	s, err := r.boot(r.streamFlags(), c, func(s *server) error {
		return streamClip(c, s.base, clips[0].Frames[:1], time.Now()).Err
	})
	if err != nil {
		return err
	}
	var runs []clipRun
	w, err := r.observe(s, c, "stream", func() {
		runs = laneB(c, s.base, clips, time.Now().Add(r.rc.Measure))
	})
	if err != nil {
		return err
	}
	frames, lat, idf1 := r.streamOutcome(clips, runs)
	r.m.set("throughput", float64(frames)/w.end.Sub(w.start).Seconds(), frames)
	r.latencyMetrics(lat)
	r.m.set("stream_idf1", idf1, min(len(runs), len(clips)))
	p50, _ := percentile(lat, 50)
	r.serverLayers(w, frames, p50)
	r.replay = &replayInputs{clips: clips[:replayClips], clipFrames: replayClipFrames}
	return nil
}

// mixed: lane A is an open loop of tenant'd /predict (Zipf over 64
// tenants) and JSON /feedback corrections on one connection; lane B
// streams clips on another connection at the same time.
func (r *run) mixed() error {
	seed := r.rc.Seed
	ops := mixedSchedule(seed, r.rc.Measure)
	crops := makeCrops(subSeed(seed, 0x313c), len(ops))
	clips := makeClips(seed, clipFrames, clipVariants)
	warmCrop := makeCrops(subSeed(seed, 0x3a7), 1)[0]
	cA, cB := newClient(1), newClient(1)
	flags := append(r.streamFlags(), "-tenants", "mem", "-tenant-budget-mb", "1", "-tenant-batch", strconv.Itoa(tenantBatch))
	s, err := r.boot(flags, cA, func(s *server) error {
		for k := 0; k < tenantCount; k++ {
			var seeded serve.TenantSeedResponse
			if err := post(cA, s.base+"/tenants/seed?tenant="+tenantID(k), "application/octet-stream", nil, "", &seeded); err != nil {
				return err
			}
		}
		res, err := predict(cA, s.base, warmCrop.PGM, tenantID(0))
		if err != nil {
			return err
		}
		if _, err := feedback(cA, s.base, tenantID(0), res.RequestID, warmCrop.Label); err != nil {
			return err
		}
		return streamClip(cB, s.base, clips[0].Frames[:1], time.Now()).Err
	})
	if err != nil {
		return err
	}
	preds := make([]serve.PredictResponse, len(ops))
	fbs := make([]serve.FeedbackResponse, len(ops))
	due := make([]time.Duration, len(ops))
	for i, op := range ops {
		due[i] = op.Due
	}
	var or openResult
	var runs []clipRun
	w, err := r.observe(s, cA, "predict", func() {
		start := time.Now()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs = laneB(cB, s.base, clips, start.Add(r.rc.Measure))
		}()
		or = openLoop(start, due, 1, func(i int) bool {
			op := ops[i]
			if !op.Feedback {
				res, err := predict(cA, s.base, crops[op.Crop].PGM, op.Tenant)
				preds[i] = res
				return err == nil
			}
			ref := preds[op.Ref]
			if ref.RequestID == "" {
				return false // the corrected predict failed
			}
			res, err := feedback(cA, s.base, op.Tenant, ref.RequestID, crops[ops[op.Ref].Crop].Label)
			fbs[i] = res
			return err == nil
		})
		wg.Wait()
	})
	if err != nil {
		return err
	}
	var predLat, fbLat []float64
	answered, correct := 0, 0
	for i, op := range ops {
		r.attempted++
		if !or.OK[i] {
			r.failed++
		}
		if op.Feedback {
			fbLat = append(fbLat, latOrInf(or.Lat[i], or.OK[i]))
			continue
		}
		predLat = append(predLat, latOrInf(or.Lat[i], or.OK[i]))
		if or.OK[i] {
			answered++
			if preds[i].Label == crops[op.Crop].Label {
				correct++
			}
		}
	}
	r.problems = append(r.problems, mixedProblems(ops, or.OK, preds, fbs)...)
	frames, _, idf1 := r.streamOutcome(clips, runs)
	r.m.set("stream_idf1", idf1, min(len(runs), len(clips)))
	r.m.set("throughput", float64(frames)/w.end.Sub(w.start).Seconds(), frames)
	r.latencyMetrics(predLat)
	r.lateness(or.Late)
	r.m.set("accuracy", float64(correct)/math.Max(1, float64(answered)), answered)
	fb95, _ := percentile(fbLat, 95)
	r.m.set("feedback_p95_ms", fb95, len(fbLat))
	svc := make([]float64, 0, len(ops))
	for i, op := range ops {
		if !op.Feedback {
			svc = append(svc, ms(or.Svc[i]))
		}
	}
	p50svc, _ := percentile(svc, 50)
	r.serverLayers(w, len(ops)+frames, p50svc)
	r.replay = &replayInputs{
		crops:      crops[:min(len(crops), replayCrops)],
		clips:      clips[:replayClips],
		clipFrames: replayClipFrames / 2,
		ops:        replaySchedule(seed),
		opCrops:    crops,
	}
	return nil
}
