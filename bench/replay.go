package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"hdface"
	"hdface/internal/detect"
	"hdface/internal/hdc"
	"hdface/internal/hdhog"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/stoch"
	"hdface/internal/tenant"
	"hdface/internal/track"
)

// Replay sizes: enough calls for stable per-layer means at a few seconds
// of single-threaded replay per pass.
const (
	replayCrops      = 96   // predict crops
	replayScenes     = 4    // detect scenes
	replayClips      = 4    // stream clips, one per scenario
	replayClipFrames = 12   // frames from the start of each replayed clip
	replayOps        = 1024 // mixed lane A operations: enough feedback for refinement rounds
	tenantFeatures   = 32   // distinct features the tenant replay cycles
)

// streamParams is the sweep the daemon runs per /stream frame under
// -stride 8.
func streamParams(workers int) detect.Params {
	return detect.Params{Win: win, Stride: 8, Scales: []float64{1, 2}, NMSIoU: 0.3, Workers: workers}
}

// replayInputs is what a replay pass feeds through the layers: predict
// crops, detect scenes, the first clipFrames frames of each clip, and the
// mixed lane A operations (with opCrops, the crop pool they index).
type replayInputs struct {
	crops      []crop
	scenes     []scene
	clips      []clip
	clipFrames int
	ops        []mixedOp
	opCrops    []crop
}

// probeInputs returns the smallest inputs that reach every layer own does
// not: layers the workload bypasses still get a value, measured on these
// and marked as probed in the trace file.
func probeInputs(seed uint64, own *replayInputs) *replayInputs {
	pr := &replayInputs{}
	if len(own.crops) == 0 {
		pr.crops = makeCrops(seed, 8)
	}
	if len(own.scenes) == 0 && len(own.clips) == 0 {
		pr.scenes = makeScenes(seed, 2)[1:]
	}
	if len(own.clips) == 0 {
		pr.clips, pr.clipFrames = makeClips(seed, 8, 1)[:1], 8
	}
	if len(own.ops) == 0 {
		pr.ops = replaySchedule(seed)
		pr.opCrops = makeCrops(subSeed(seed, 0x313c), tenantFeatures)
	}
	return pr
}

// replaySchedule is the first replayOps operations of the mixed lane A
// schedule for seed (schedules are prefix-stable across durations).
func replaySchedule(seed uint64) []mixedOp {
	return mixedSchedule(seed, time.Duration(math.Ceil(2*replayOps/mixedRate))*time.Second)[:replayOps]
}

// replayer calls the repository's public functions the way the daemon
// does, single-threaded, under a tracer.
type replayer struct {
	fx      *fixture
	p       *hdface.Pipeline
	emotion *hdc.Model
	scorer  *hdface.FaceScorer
	feats   []*hv.Vector // tenant replay features, by op crop index mod len
	n       passCounts   // work counters of the current pass
}

// passCounts counts the work of one replay pass.
type passCounts struct {
	requests, sites     int64
	sweeps, windows     int64
	hits, boxes, frames int64
	hit, miss           int64 // tenant model resolutions
}

func newReplayer(fx *fixture) (*replayer, error) {
	p, err := hdface.LoadSnapshotFile(fx.Snapshot)
	if err != nil {
		return nil, err
	}
	p.SetWorkers(1)
	f, err := os.Open(fx.Emotion)
	if err != nil {
		return nil, err
	}
	emotion, err := hdc.Load(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	scorer, err := p.DetectScorer(nil, win)
	if err != nil {
		return nil, err
	}
	return &replayer{fx: fx, p: p, emotion: emotion, scorer: scorer}, nil
}

// pass replays in through the layers once and returns its wall time and
// work counts.
func (rp *replayer) pass(in *replayInputs, t *tracer) (time.Duration, passCounts, error) {
	rp.n = passCounts{}
	sites0 := rp.p.Work().Pixels
	start := time.Now()
	for b := 0; b < len(in.crops); b += 8 {
		rp.predictBatch(in.crops[b:min(b+8, len(in.crops))], t)
	}
	for _, sc := range in.scenes {
		t.req = int(rp.n.requests)
		rp.n.requests++
		i := t.begin("replay.detect", false)
		if _, err := rp.sweep(decodeTraced(sc.PGM, t), servedParams(1), t); err != nil {
			return 0, rp.n, err
		}
		t.end(i)
	}
	for _, c := range in.clips {
		if err := rp.clip(c.Frames[:min(in.clipFrames, len(c.Frames))], t); err != nil {
			return 0, rp.n, err
		}
	}
	if len(in.ops) > 0 {
		if err := rp.tenantOps(in.ops, in.opCrops, t); err != nil {
			return 0, rp.n, err
		}
	}
	wall := time.Since(start)
	rp.n.sites = rp.p.Work().Pixels - sites0
	return wall, rp.n, nil
}

func decodeTraced(pgm []byte, t *tracer) *imgproc.Image {
	i := t.begin("imgproc.decode", false)
	img := decode(pgm)
	t.end(i)
	return img
}

// predictBatch replays one daemon micro-batch: decode each body, extract
// the batch, score each feature against the live model.
func (rp *replayer) predictBatch(batch []crop, t *tracer) {
	t.req = int(rp.n.requests)
	rp.n.requests += int64(len(batch))
	root := t.begin("replay.predict_batch", false)
	imgs := make([]*imgproc.Image, len(batch))
	for i, c := range batch {
		imgs[i] = decodeTraced(c.PGM, t)
	}
	i := t.begin("hdface.extract", true)
	feats, _ := rp.p.FeaturesContext(context.Background(), imgs)
	t.end(i)
	t.items(i, int64(len(imgs)))
	for _, f := range feats {
		j := t.begin("hdc.scores", false)
		rp.p.Model().Scores(f)
		t.end(j)
	}
	t.end(root)
}

// tracedScorer wraps the served scorer so the sweep's calls into the
// hdface layer are timed: PrepareLevel (whose cost is the level's hdhog
// cell grid) and every window's ScoreAt. It also keeps the raw hits, so
// NMS can be timed outside the sweep on exactly the sweep's input.
type tracedScorer struct {
	*hdface.FaceScorer
	t      *tracer
	params detect.Params
	raw    []detect.Box
}

func (s *tracedScorer) PrepareLevel(level *imgproc.Image, li, w, workers int) detect.LevelScorer {
	i := s.t.begin("hdhog.level_grid", true)
	ls := s.FaceScorer.PrepareLevel(level, li, w, workers)
	s.t.end(i)
	s.t.items(i, int64((level.W/8)*(level.H/8)))
	return &tracedLevel{LevelScorer: ls, s: s, scale: s.params.Scales[li]}
}

type tracedLevel struct {
	detect.LevelScorer
	s     *tracedScorer
	scale float64
}

func (l *tracedLevel) ScoreAt(x, y, idx int) (bool, float64) {
	i := l.s.t.begin("hdface.score_at", false)
	hit, score := l.LevelScorer.ScoreAt(x, y, idx)
	l.s.t.end(i)
	if hit {
		w := l.s.params.Win
		l.s.raw = append(l.s.raw, detect.Box{
			X0: int(float64(x) * l.scale), Y0: int(float64(y) * l.scale),
			X1: int(math.Ceil(float64(x+w) * l.scale)), Y1: int(math.Ceil(float64(y+w) * l.scale)),
			Score: score, Scale: l.scale,
		})
	}
	return hit, score
}

func (l *tracedLevel) Fork() detect.LevelScorer {
	return &tracedLevel{LevelScorer: l.LevelScorer.Fork(), s: l.s, scale: l.scale}
}

func (l *tracedLevel) CloseLevel() {
	if c, ok := l.LevelScorer.(detect.LevelCloser); ok {
		c.CloseLevel()
	}
}

// sweep runs one single-worker detect.Sweep. Traced, it also times the
// pyramid resizes and NMS the sweep performs internally, redone outside
// it on the same inputs, and checks that NMS over the recorded raw hits
// reproduces the sweep's boxes.
func (rp *replayer) sweep(img *imgproc.Image, params detect.Params, t *tracer) ([]detect.Box, error) {
	var sc detect.WindowScorer = rp.scorer
	ts := &tracedScorer{FaceScorer: rp.scorer, t: t, params: params}
	if t.on {
		sc = ts
	}
	i := t.begin("detect.sweep", true)
	boxes, stats, err := detect.Sweep(context.Background(), img, sc, params)
	t.end(i)
	if err != nil {
		return nil, err
	}
	t.items(i, stats.Windows)
	rp.n.sweeps++
	rp.n.windows += stats.Windows
	rp.n.hits += stats.Hits
	if t.on {
		for _, s := range params.Scales {
			w, h := int(float64(img.W)/s), int(float64(img.H)/s)
			if s == 1 || w < params.Win || h < params.Win {
				continue
			}
			j := t.begin("imgproc.pyramid", false)
			img.Resize(w, h)
			t.end(j)
		}
		j := t.begin("detect.nms", false)
		kept := detect.NMS(ts.raw, params.NMSIoU)
		t.end(j)
		if !reflect.DeepEqual(kept, boxes) {
			return nil, fmt.Errorf("NMS over the sweep's raw hits gives %v, the sweep %v", kept, boxes)
		}
	}
	return boxes, nil
}

// clip replays one /stream connection: per frame the sweep, an appearance
// feature per box, the tracker step, and per-track emotion bundling.
func (rp *replayer) clip(frames [][]byte, t *tracer) error {
	cfg := rp.p.Config()
	tk := track.New(track.Config{MaxDist: 1.5 * win}, cfg.Seed^0x57e4)
	type bundle struct {
		acc   *hv.Accumulator
		first *hv.Vector
	}
	bundles := map[int]*bundle{}
	for _, pgm := range frames {
		t.req = int(rp.n.requests)
		rp.n.requests++
		rp.n.frames++
		root := t.begin("replay.frame", false)
		img := decodeTraced(pgm, t)
		boxes, err := rp.sweep(img, streamParams(1), t)
		if err != nil {
			return err
		}
		rp.n.boxes += int64(len(boxes))
		feats := map[[4]int]*hv.Vector{}
		dets := make([]track.Detection, 0, len(boxes))
		for _, b := range boxes {
			i := t.begin("hdface.appearance", true)
			f := rp.p.Feature(img.Crop(b.X0, b.Y0, b.X1-b.X0, b.Y1-b.Y0))
			t.end(i)
			box := [4]int{b.X0, b.Y0, b.X1, b.Y1}
			dets = append(dets, track.Detection{Box: box, Feature: f})
			feats[box] = f
		}
		i := t.begin("track.step", false)
		touched, err := tk.StepErr(dets)
		t.end(i)
		if err != nil {
			return err
		}
		for _, tr := range touched {
			f := feats[tr.Last()]
			if f == nil {
				continue
			}
			b := bundles[tr.ID]
			if b == nil {
				b = &bundle{acc: hv.NewAccumulator(f.D()), first: f.Clone()}
				bundles[tr.ID] = b
			}
			j := t.begin("hv.emotion_bundle", false)
			b.acc.Add(f)
			bundled, _ := b.acc.Sign(b.first)
			t.end(j)
			j = t.begin("hdc.scores", false)
			rp.emotion.Scores(bundled)
			t.end(j)
		}
		t.end(root)
	}
	return nil
}

// tenantOps replays the mixed lane A access sequence against an in-process
// tenant store configured like the daemon's (1 MiB budget, tenantBatch),
// timing model resolution (split by whether the live model was
// materialized) and feedback (split by whether it completed a refinement
// round).
func (rp *replayer) tenantOps(ops []mixedOp, crops []crop, t *tracer) error {
	cfg := rp.p.Config()
	store, err := tenant.Open(tenant.Config{BudgetBytes: 1 << 20, FeedbackBatch: tenantBatch, TrainOpts: cfg.Train})
	if err != nil {
		return err
	}
	for k := 0; k < tenantCount; k++ {
		if _, err := store.Seed(tenantID(k), cfg, rp.p.Model()); err != nil {
			return err
		}
	}
	for n, op := range ops {
		t.req = int(rp.n.requests)
		rp.n.requests++
		if !op.Feedback {
			v, err := store.Live(op.Tenant)
			if err != nil {
				return err
			}
			name := "tenant.model_miss"
			if v.Materialized() {
				name = "tenant.model_hit"
				rp.n.hit++
			} else {
				rp.n.miss++
			}
			i := t.begin(name, false)
			_, _, err = store.Model(op.Tenant)
			t.end(i)
			if err != nil {
				return err
			}
			continue
		}
		ref := ops[op.Ref].Crop
		i := t.begin("tenant.feedback", false)
		promoted, err := store.Feedback(op.Tenant, rp.feats[ref%len(rp.feats)], crops[ref%len(rp.feats)].Label)
		t.end(i)
		if err != nil {
			return fmt.Errorf("op %d: %w", n, err)
		}
		if promoted != 0 {
			t.rename(i, "tenant.round")
		}
	}
	return nil
}

// kernels times the layers below the daemon's call boundaries on the
// workload's own images (workImgs: 48x48 working-size rasters; levelImgs:
// sweep inputs with their sweep parameters): the hyperspace-HOG site
// kernel, per-image cell histograms and bundling, the level grid at one
// and two workers, fused window scoring, snapshot load and scorer build.
func (rp *replayer) kernels(workImgs []*imgproc.Image, levelImgs []*imgproc.Image, levelParams []detect.Params, t *tracer) error {
	for k := 0; k < 3; k++ {
		i := t.begin("hdface.load_snapshot", false)
		_, err := hdface.LoadSnapshotFile(rp.fx.Snapshot)
		t.end(i)
		if err != nil {
			return err
		}
		i = t.begin("hdface.scorer_build", false)
		_, err = rp.p.DetectScorer(nil, win)
		t.end(i)
		if err != nil {
			return err
		}
	}

	cfg := rp.p.Config()
	ext := hdhog.New(stoch.NewCodec(cfg.D, cfg.Seed^0xcafe), hdhog.Params{Stride: cfg.Stride})
	ext.WarmIDs(win, win)
	type site struct{ gx, gy *hv.Vector }
	for n, img := range workImgs {
		ext.Reseed(uint64(n))
		var pts [][2]int
		st, cs := ext.P.Stride, ext.P.CellSize
		for cy := 0; cy+cs <= img.H; cy += cs {
			for cx := 0; cx+cs <= img.W; cx += cs {
				for py := st / 2; py < cs; py += st {
					for px := st / 2; px < cs; px += st {
						pts = append(pts, [2]int{cx + px, cy + py})
					}
				}
			}
		}
		sites := make([]site, len(pts))
		i := t.begin("hdhog.gradient", true)
		for k, pt := range pts {
			sites[k].gx, sites[k].gy = ext.GradientHV(img, pt[0], pt[1])
		}
		t.end(i)
		t.items(i, int64(len(pts)))
		i = t.begin("hdhog.magnitude", true)
		for _, s := range sites {
			ext.MagnitudeHV(s.gx, s.gy)
		}
		t.end(i)
		t.items(i, int64(len(pts)))
		i = t.begin("hdhog.bin", true)
		for _, s := range sites {
			ext.BinOf(s.gx, s.gy)
		}
		t.end(i)
		t.items(i, int64(len(pts)))
		ext.Reseed(uint64(n))
		i = t.begin("hdhog.cell_hist", false)
		ext.CellHistogramHVs(img)
		t.end(i)
		ext.Reseed(uint64(n))
		i = t.begin("hdhog.feature", false)
		ext.Feature(img)
		t.end(i)
	}

	level := levelImgs[0]
	for _, w := range []int{1, 2} {
		i := t.begin(fmt.Sprintf("hdhog.level_grid_w%d", w), false)
		ext.LevelGrid(level, 1, w)
		t.end(i)
	}

	fused, err := rp.p.DetectScorer(nil, win)
	if err != nil {
		return err
	}
	fused.Fused = true
	for k, img := range levelImgs {
		pm := levelParams[k]
		for li, s := range pm.Scales {
			lv := img
			if s != 1 {
				w, h := int(float64(img.W)/s), int(float64(img.H)/s)
				if w < pm.Win || h < pm.Win {
					continue
				}
				lv = img.Resize(w, h)
			}
			ls := fused.PrepareLevel(lv, li, pm.Win, 1)
			nx, ny := (lv.W-pm.Win)/pm.Stride+1, (lv.H-pm.Win)/pm.Stride+1
			for idx := 0; idx < nx*ny; idx++ {
				i := t.begin("hdface.score_fused", false)
				ls.ScoreAt(idx%nx*pm.Stride, idx/nx*pm.Stride, idx)
				t.end(i)
			}
			if c, ok := ls.(detect.LevelCloser); ok {
				c.CloseLevel()
			}
		}
	}
	return nil
}

// workingImages returns up to n 48x48 rasters from the inputs: predict
// crops as sent, else window crops of scenes or frames.
func workingImages(in *replayInputs, n int) []*imgproc.Image {
	var out []*imgproc.Image
	for _, c := range in.crops {
		if len(out) == n {
			return out
		}
		out = append(out, decode(c.PGM))
	}
	var srcs []*imgproc.Image
	for _, sc := range in.scenes {
		srcs = append(srcs, sc.Img)
	}
	for _, c := range in.clips {
		srcs = append(srcs, c.Images[:min(in.clipFrames, len(c.Images))]...)
	}
	for k := 0; len(out) < n && k < n*len(srcs); k++ {
		img := srcs[k%len(srcs)]
		x := (k * 29) % (img.W - win)
		y := (k * 17) % (img.H - win)
		out = append(out, img.Crop(x, y, win, win))
	}
	return out
}

// levelImages returns up to two sweep inputs with their daemon sweep
// parameters: detect scenes, else stream frames.
func levelImages(in *replayInputs) ([]*imgproc.Image, []detect.Params) {
	var imgs []*imgproc.Image
	var params []detect.Params
	for _, sc := range in.scenes {
		imgs, params = append(imgs, sc.Img), append(params, servedParams(1))
	}
	for _, c := range in.clips {
		imgs, params = append(imgs, c.Images[0]), append(params, streamParams(1))
	}
	n := min(len(imgs), 2)
	return imgs[:n], params[:n]
}

// traceFile is trace-<workload>.json: per-layer aggregates with self times
// and every span, for the workload's own replay, the kernel timings and the
// probe that covers layers the workload bypasses.
type traceFile struct {
	Schema   string                           `json:"schema"`
	Workload string                           `json:"workload"`
	Seed     uint64                           `json:"seed"`
	Layers   map[string]map[string]*layerStat `json:"layers"`
	Spans    map[string][]span                `json:"spans"`
}

// replayLayers runs the traced replay after the daemon has stopped and
// records the per-layer metrics: kernels and probe first (they also warm
// the code paths), then the workload's own inputs untraced and traced; the
// difference between the two is the tracing overhead.
func (r *run) replayLayers() error {
	rp, err := newReplayer(r.rc.Fx)
	if err != nil {
		return err
	}
	own := r.replay
	probe := probeInputs(r.rc.Seed, own)
	kt := newTracer(true)
	levelImgs, levelParams := levelImages(own)
	if len(levelImgs) == 0 {
		levelImgs, levelParams = levelImages(probe)
	}
	if err := rp.kernels(workingImages(own, 8), levelImgs, levelParams, kt); err != nil {
		return err
	}
	// The tenant replay cycles a few precomputed features: the store's
	// cost does not depend on their content.
	if opCrops := append(own.opCrops, probe.opCrops...); len(opCrops) > 0 {
		imgs := make([]*imgproc.Image, min(len(opCrops), tenantFeatures))
		for i := range imgs {
			imgs[i] = decode(opCrops[i].PGM)
		}
		rp.feats = rp.p.Features(imgs)
	}
	pt := newTracer(true)
	_, probeN, err := rp.pass(probe, pt)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	// Untraced and traced passes alternate, and the fastest of each is
	// compared, so a slow moment of the machine does not pass for overhead.
	var ot *tracer
	var ownN passCounts
	off, on := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for k := 0; k < 2; k++ {
		wall, _, err := rp.pass(own, newTracer(false))
		if err != nil {
			return err
		}
		off = min(off, wall)
		ot = newTracer(true)
		if wall, ownN, err = rp.pass(own, ot); err != nil {
			return err
		}
		on = min(on, wall)
	}
	r.m.set("bench.trace_overhead_frac", on.Seconds()/off.Seconds()-1, int(ownN.requests))
	r.m.set("hdhog.sites_per_req", float64(ownN.sites)/float64(max(ownN.requests, 1)), int(ownN.requests))

	ownL, probeL, kernL := ot.layers(), pt.layers(), kt.layers()
	// pick prefers the workload's own spans and falls back to the probe.
	pick := func(name string) *layerStat {
		if l := ownL[name]; l != nil {
			return l
		}
		if l := probeL[name]; l != nil {
			return l
		}
		return &layerStat{Count: 1, TotalMS: math.NaN(), SelfMS: math.NaN()}
	}
	// counts likewise prefers the own pass when it did the work at all.
	counts := func(did func(passCounts) bool) passCounts {
		if did(ownN) {
			return ownN
		}
		return probeN
	}
	set := func(name string, v float64, l *layerStat) { r.m.set(name, v, l.Count) }

	for _, n := range []string{"imgproc.decode", "imgproc.pyramid", "detect.nms", "track.step",
		"hv.emotion_bundle", "hdc.scores", "tenant.model_hit", "tenant.model_miss", "tenant.feedback"} {
		l := pick(n)
		set(n+"_us", l.meanUS(), l)
	}
	l := pick("hdface.extract")
	set("hdface.extract_ms", l.perItemUS()/1000, l)
	set("hdface.extract_allocs", float64(l.Allocs)/float64(l.Items), l)
	l = pick("hdface.score_at")
	set("hdface.score_us_per_window", l.meanUS(), l)
	l = pick("hdface.appearance")
	set("hdface.appearance_ms_per_box", l.meanUS()/1000, l)
	l = pick("tenant.round")
	set("tenant.round_ms", l.meanUS()/1000, l)
	l = pick("hdhog.level_grid")
	set("hdhog.level_grid_ms", l.SelfMS/float64(l.Count), l)
	set("hdhog.level_grid_allocs_per_cell", float64(l.Allocs)/float64(l.Items), l)
	l = pick("detect.sweep")
	set("detect.sweep_ms", l.meanUS()/1000, l)

	sw := counts(func(n passCounts) bool { return n.sweeps > 0 })
	r.m.set("detect.windows_per_req", float64(sw.windows)/float64(max(sw.sweeps, 1)), int(sw.sweeps))
	r.m.set("detect.hit_frac", float64(sw.hits)/float64(max(sw.windows, 1)), int(sw.windows))
	fr := counts(func(n passCounts) bool { return n.frames > 0 })
	r.m.set("detect.boxes_per_frame", float64(fr.boxes)/float64(max(fr.frames, 1)), int(fr.frames))
	tc := counts(func(n passCounts) bool { return n.hit+n.miss > 0 })
	r.m.set("tenant.miss_frac", float64(tc.miss)/float64(max(tc.hit+tc.miss, 1)), int(tc.hit+tc.miss))

	// Coverage: how much of the single-worker sweep's wall time the layer
	// spans account for, with the sweep's internal resize and NMS timed
	// outside it on the same inputs.
	cov := ownL
	if cov["detect.sweep"] == nil {
		cov = probeL
	}
	sum := 0.0
	for _, n := range []string{"hdhog.level_grid", "hdface.score_at"} {
		sum += cov[n].SelfMS
	}
	for _, n := range []string{"imgproc.pyramid", "detect.nms"} {
		if l := cov[n]; l != nil {
			sum += l.TotalMS
		}
	}
	r.m.set("detect.coverage", sum/cov["detect.sweep"].TotalMS, cov["detect.sweep"].Count)

	for _, n := range []string{"gradient", "magnitude", "bin"} {
		k := kernL["hdhog."+n]
		r.m.set("hdhog."+n+"_ns", k.perItemUS()*1000, int(k.Items))
	}
	siteAllocs := kernL["hdhog.gradient"].Allocs + kernL["hdhog.magnitude"].Allocs + kernL["hdhog.bin"].Allocs
	r.m.set("hdhog.site_allocs", float64(siteAllocs)/float64(kernL["hdhog.gradient"].Items), int(kernL["hdhog.gradient"].Items))
	ch, ft := kernL["hdhog.cell_hist"], kernL["hdhog.feature"]
	r.m.set("hdhog.cell_hist_ms", ch.meanUS()/1000, ch.Count)
	r.m.set("hdhog.bundle_ms", (ft.meanUS()-ch.meanUS())/1000, ft.Count)
	r.m.set("hdhog.level_grid_w2_speedup", kernL["hdhog.level_grid_w1"].TotalMS/kernL["hdhog.level_grid_w2"].TotalMS, 1)
	for _, n := range []string{"load_snapshot", "scorer_build"} {
		k := kernL["hdface."+n]
		r.m.set("hdface."+n+"_ms", k.meanUS()/1000, k.Count)
	}
	k := kernL["hdface.score_fused"]
	r.m.set("hdface.score_fused_us_per_window", k.meanUS(), k.Count)

	r.trace = &traceFile{
		Schema: "hdface-bench-trace/v1", Workload: r.rc.Workload, Seed: r.rc.Seed,
		Layers: map[string]map[string]*layerStat{"own": ownL, "kernels": kernL, "probe": probeL},
		Spans:  map[string][]span{"own": ot.spans, "kernels": kt.spans, "probe": pt.spans},
	}
	return nil
}

// write writes trace-<workload>.json into dir.
func (tf *traceFile) write(dir string) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), b, 0o644)
}
