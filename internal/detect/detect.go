// Package detect drives sliding-window face detection at multiple scales:
// an image pyramid feeds a window classifier, detections map back to
// original coordinates, and non-maximum suppression merges overlapping
// hits. Any scoring function works — the HDFace pipeline or a test stub.
//
// The sweep engine supports two scoring contracts. A plain WindowScorer is
// handed cropped raw-pixel windows, one at a time. A GridScorer may
// additionally prepare per-level state once — such as the hyperspace HOG
// cell grid whose cell hypervectors are shared by every overlapping window
// — and score windows from it without re-extracting.
// Sweeps fan out over a worker pool; window indices are deterministic, so
// scorers that reseed from them produce byte-identical results for any
// worker count.
//
// Sweeps are resilient. They take a context.Context and check it
// cooperatively once per window batch: a cancelled or expired context stops
// the sweep promptly, drains the worker pool without leaking goroutines,
// and returns the best-so-far boxes with SweepStats.Degraded set (the
// anytime contract — levels are scored coarse-to-fine, so an expired
// deadline still leaves whole-scene coverage at the coarse scales). A
// scorer that panics is contained per window: the panic becomes a typed
// *WindowError naming the level and window instead of taking down the
// process, the window counts as a miss, and the sweep continues.
package detect

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hdface/internal/imgproc"
	"hdface/internal/obs"
	"hdface/internal/obs/trace"
)

// Observability series for the sliding-window sweep: how many windows the
// pyramid produced, how many the scorer accepted, what NMS kept, how the
// sweep was parallelised and which pyramid levels never ran. They record
// nothing unless obs is enabled.
var (
	obsWindows      = obs.NewCounter("hdface_detect_windows_scanned_total", "windows scored across all pyramid levels")
	obsHits         = obs.NewCounter("hdface_detect_windows_hit_total", "windows the scorer accepted")
	obsNMSIn        = obs.NewCounter("hdface_detect_nms_input_total", "boxes entering non-maximum suppression")
	obsNMSKept      = obs.NewCounter("hdface_detect_nms_survivors_total", "boxes surviving non-maximum suppression")
	obsRunWindows   = obs.NewHistogram("hdface_detect_windows_per_run", "windows scanned per detection sweep", obs.SizeBuckets)
	obsWorkers      = obs.NewGauge("hdface_detect_workers", "effective worker count of the last detection sweep")
	obsSkipped      = obs.NewCounter("hdface_detect_levels_skipped_total", "pyramid levels skipped because the scaled image is smaller than the window")
	obsLevelWindows = obs.NewHistogram("hdface_detect_windows_per_level", "windows scanned per pyramid level", obs.SizeBuckets)
	obsCancelled    = obs.NewCounter("hdface_detect_sweeps_cancelled_total", "sweeps stopped early by context cancellation or deadline")
	obsDegraded     = obs.NewCounter("hdface_detect_degraded_returns_total", "sweeps that returned best-so-far boxes with the Degraded flag")
	obsPanics       = obs.NewCounter("hdface_detect_scorer_panics_total", "scorer panics contained as WindowErrors")
	obsSlack        = obs.NewHistogram("hdface_detect_deadline_slack_seconds", "deadline budget left when a deadlined sweep completed in time", obs.LatencyBuckets)
)

// cancelBatch is how many windows a worker scores between cooperative
// cancellation checks. Scoring one window costs microseconds, so a batch
// keeps the atomic load off the per-window fast path while still bounding
// the reaction time to a cancelled context.
const cancelBatch = 16

// maxWindowErrors caps how many contained panics a sweep retains in full;
// further panics are still counted in SweepStats.Panics but only the first
// few carry stacks, keeping a pathological scorer from hoarding memory.
const maxWindowErrors = 8

// WindowError reports a scorer panic contained by the sweep: the window
// named by level and coordinates scored as a miss, the rest of the sweep
// continued. It is returned (possibly joined with others) as the sweep
// error, alongside valid boxes and stats.
type WindowError struct {
	Level int     // index of the level in pyramid order (SweepStats.WindowsPerLevel order)
	Scale float64 // pyramid scale of the level
	X, Y  int     // window top-left corner in level coordinates
	Index int     // row-major window index within the level
	Cause any     // recovered panic value
	Stack []byte  // stack captured at the panic site
}

// Error implements error.
func (e *WindowError) Error() string {
	return fmt.Sprintf("detect: scorer panicked on window %d at (%d,%d) of level %d (scale %g): %v",
		e.Index, e.X, e.Y, e.Level, e.Scale, e.Cause)
}

// Box is one detection in original-image coordinates.
type Box struct {
	X0, Y0, X1, Y1 int
	Score          float64
	Scale          float64 // pyramid scale the hit came from
}

// IoU returns the intersection-over-union of two boxes.
func IoU(a, b Box) float64 {
	ix0, iy0 := maxInt(a.X0, b.X0), maxInt(a.Y0, b.Y0)
	ix1, iy1 := minInt(a.X1, b.X1), minInt(a.Y1, b.Y1)
	if ix1 <= ix0 || iy1 <= iy0 {
		return 0
	}
	inter := float64((ix1 - ix0) * (iy1 - iy0))
	areaA := float64((a.X1 - a.X0) * (a.Y1 - a.Y0))
	areaB := float64((b.X1 - b.X0) * (b.Y1 - b.Y0))
	union := areaA + areaB - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// WindowScorer classifies one raw-pixel window, returning whether it is a
// face and a confidence (higher = more face-like). Windows arrive at the
// sweep's window size.
type WindowScorer interface {
	ScoreWindow(win *imgproc.Image) (bool, float64)
}

// Forker is implemented by scorers whose clones may score windows on
// separate goroutines. Fork is called serially, before the sweep's
// goroutines start.
type Forker interface {
	Fork() WindowScorer
}

// LevelScorer scores windows of one prepared pyramid level.
type LevelScorer interface {
	// ScoreAt scores the window whose top-left corner is (x, y) in level
	// coordinates. idx is the window's row-major index within the level —
	// deterministic regardless of worker count or scheduling — so
	// stochastic scorers reseed from it to keep sweeps reproducible.
	ScoreAt(x, y, idx int) (bool, float64)
	// Fork returns a clone safe to run on another goroutine. Like
	// Forker.Fork it is called serially before scoring starts.
	Fork() LevelScorer
}

// LevelCloser is implemented by LevelScorers holding per-worker resources —
// scoring arenas, per-level stage spans, batched work counters — that need
// a deterministic flush once scoring ends. Sweep calls CloseLevel exactly
// once per level fork (including the original returned by PrepareLevel),
// serially, after every worker goroutine has finished; implementations may
// therefore touch shared state without synchronisation.
type LevelCloser interface {
	CloseLevel()
}

// GridScorer is implemented by scorers that can precompute per-level state
// (the hyperspace HOG cell grid) and score windows from it instead of from
// cropped pixels.
type GridScorer interface {
	WindowScorer
	// PrepareLevel is called once per pyramid level, serially and in
	// pyramid order, before scoring starts; workers is the parallelism the
	// preparation itself may use. Returning nil falls back to per-window
	// ScoreWindow calls for that level.
	PrepareLevel(level *imgproc.Image, levelIdx, win, workers int) LevelScorer
}

// Scorer is the legacy function contract. It adapts to WindowScorer, but a
// bare function cannot declare itself clone-safe, so sweeps over it run
// single-worker.
type Scorer func(win *imgproc.Image) (bool, float64)

// ScoreWindow implements WindowScorer.
func (s Scorer) ScoreWindow(win *imgproc.Image) (bool, float64) { return s(win) }

// Params configures a detection sweep.
type Params struct {
	// Win is the classifier's native window size (default 48).
	Win int
	// Stride is the slide step at each scale (default Win/2).
	Stride int
	// Scales are pyramid downscale factors; 1 means native resolution,
	// 2 halves the image so the effective window doubles
	// (default {1, 1.5, 2}). They are deduplicated and swept in ascending
	// order; non-positive or non-finite scales are rejected.
	Scales []float64
	// NMSIoU merges detections overlapping at least this much
	// (default 0.3); set negative to disable suppression.
	NMSIoU float64
	// Workers is the sweep parallelism (default 1). Counts above one
	// require the scorer to support cloning (Forker, or per-level scorers
	// via GridScorer); otherwise the sweep clamps to one worker.
	Workers int
}

// normalize validates p and fills defaults.
func (p Params) normalize() (Params, error) {
	if p.Win == 0 {
		p.Win = 48
	}
	if p.Win < 0 {
		return p, fmt.Errorf("detect: window size %d must be positive", p.Win)
	}
	if p.Stride == 0 {
		p.Stride = p.Win / 2
		if p.Stride == 0 {
			p.Stride = 1
		}
	}
	if p.Stride < 0 {
		return p, fmt.Errorf("detect: stride %d must be positive", p.Stride)
	}
	if p.Workers == 0 {
		p.Workers = 1
	}
	if p.Workers < 0 {
		return p, fmt.Errorf("detect: worker count %d must be positive", p.Workers)
	}
	if len(p.Scales) == 0 {
		p.Scales = []float64{1, 1.5, 2}
	} else {
		ss := append([]float64(nil), p.Scales...)
		for _, s := range ss {
			if !(s > 0) || math.IsInf(s, 1) {
				return p, fmt.Errorf("detect: scale %v must be positive and finite", s)
			}
		}
		sort.Float64s(ss)
		uniq := ss[:1]
		for _, s := range ss[1:] {
			if s != uniq[len(uniq)-1] {
				uniq = append(uniq, s)
			}
		}
		p.Scales = uniq
	}
	if p.NMSIoU == 0 {
		p.NMSIoU = 0.3
	}
	return p, nil
}

// SweepStats reports what a detection sweep did.
type SweepStats struct {
	Windows int64 // windows scored
	Hits    int64 // windows the scorer accepted
	Levels  int   // pyramid levels swept
	// SkippedLevels counts scales dropped because the scaled image was
	// smaller than the window (previously an invisible no-op).
	SkippedLevels int
	// PreparedLevels counts levels scored through a prepared LevelScorer
	// (a cell-hypervector grid); PreparedWindows and FallbackWindows split
	// the window total accordingly.
	PreparedLevels  int
	PreparedWindows int64
	FallbackWindows int64
	Workers         int     // effective worker count after capability clamping
	WindowsPerLevel []int64 // windows per swept level, in pyramid order

	// Degraded reports that the context was cancelled (or its deadline
	// expired) before every window was scored: the returned boxes are the
	// best-so-far anytime result, not the full sweep.
	Degraded bool
	// CompletedWindows counts windows actually scored (equals Windows
	// unless Degraded); CompletedPerLevel splits it in WindowsPerLevel
	// order, showing how far down the coarse-to-fine schedule the sweep
	// got before the budget ran out.
	CompletedWindows  int64
	CompletedPerLevel []int64
	// Panics counts scorer panics contained as WindowErrors.
	Panics int64
}

// level is one materialised pyramid level.
type level struct {
	img    *imgproc.Image
	scale  float64
	nx, ny int // window lattice extent
	start  int // global index of the level's first window
	ls     LevelScorer
}

// Sweep runs the scorer over the image pyramid with p.Workers-way
// parallelism and returns suppressed detections in original coordinates,
// best score first, plus sweep statistics. Results are deterministic for a
// fixed (image, scorer state, Params) as long as the scorer keys its
// randomness on the provided window indices; the worker count never
// changes the output.
//
// ctx bounds the sweep: cancellation or an expired deadline stops scoring
// within one window batch per worker, the pool drains, and Sweep returns
// the boxes scored so far with stats.Degraded set and a nil error — the
// anytime contract. Scoring proceeds coarse-to-fine (largest pyramid scale
// first), so a blown budget degrades resolution, not scene coverage. A
// panicking scorer does not abort the sweep: each panic is contained as a
// *WindowError (joined into the returned error), the window counts as a
// miss, and all other windows are still scored. Boxes and stats are valid
// even when the returned error is non-nil.
func Sweep(ctx context.Context, img *imgproc.Image, scorer WindowScorer, p Params) ([]Box, SweepStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var stats SweepStats
	p, err := p.normalize()
	if err != nil {
		return nil, stats, err
	}
	sp := obs.StartSpan("detect_sweep")
	defer sp.End()
	// Per-request span tree, if the caller's context carries a trace. The
	// tracer only observes — it never touches scoring state — so output
	// stays byte-identical across worker counts with tracing on.
	_, tsp := trace.StartSpan(ctx, "detect_sweep")
	defer tsp.End()

	// Build the pyramid and per-level state serially: Resize is cheap next
	// to scoring, and PrepareLevel implementations parallelise internally.
	gs, _ := scorer.(GridScorer)
	var levels []level
	var lvSpans []*trace.Span
	total := 0
	for li, s := range p.Scales {
		w := int(float64(img.W) / s)
		h := int(float64(img.H) / s)
		if w < p.Win || h < p.Win {
			stats.SkippedLevels++
			obsSkipped.Inc()
			continue
		}
		lsp := tsp.StartSpan("level")
		lv := level{img: img, scale: s}
		if s != 1 {
			lv.img = img.Resize(w, h)
		}
		lv.nx = (lv.img.W-p.Win)/p.Stride + 1
		lv.ny = (lv.img.H-p.Win)/p.Stride + 1
		lv.start = total
		n := lv.nx * lv.ny
		total += n
		// Level preparation (a full cell-grid extraction) is the expensive
		// part of the pyramid build; once the context is dead there is no
		// budget left to spend on it.
		if gs != nil && ctx.Err() == nil {
			lv.ls = gs.PrepareLevel(lv.img, li, p.Win, p.Workers)
		}
		if lv.ls != nil {
			stats.PreparedLevels++
			stats.PreparedWindows += int64(n)
		} else {
			stats.FallbackWindows += int64(n)
		}
		lsp.End() // the span times resize + preparation
		lsp.SetAttr("scale", fmt.Sprintf("%g", s))
		lsp.SetAttrInt("windows", int64(n))
		lsp.SetAttr("prepared", fmt.Sprintf("%t", lv.ls != nil))
		lvSpans = append(lvSpans, lsp)
		levels = append(levels, lv)
		stats.WindowsPerLevel = append(stats.WindowsPerLevel, int64(n))
		obsLevelWindows.Observe(float64(n))
	}
	stats.Levels = len(levels)
	stats.Windows = int64(total)

	workers := p.Workers
	if workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}
	// Fallback levels need per-worker clones of the raw-pixel scorer; a
	// scorer that cannot provide them caps the sweep at one worker. All
	// forks are created serially, before any goroutine starts.
	needWS := false
	for _, lv := range levels {
		if lv.ls == nil {
			needWS = true
		}
	}
	var wsForks []WindowScorer
	if needWS && workers > 1 {
		if f, ok := scorer.(Forker); ok {
			wsForks = make([]WindowScorer, workers)
			wsForks[0] = scorer
			for w := 1; w < workers; w++ {
				wsForks[w] = f.Fork()
			}
		} else {
			workers = 1
		}
	}
	if workers == 1 {
		wsForks = []WindowScorer{scorer}
	}
	lsForks := make([][]LevelScorer, len(levels))
	for i, lv := range levels {
		if lv.ls == nil {
			continue
		}
		row := make([]LevelScorer, workers)
		row[0] = lv.ls
		for w := 1; w < workers; w++ {
			row[w] = lv.ls.Fork()
		}
		lsForks[i] = row
	}
	stats.Workers = workers
	obsWorkers.Set(float64(workers))

	// Anytime schedule: score levels coarse-to-fine (largest scale, i.e.
	// fewest windows, first). Assembly below still walks levels in pyramid
	// order, so a completed sweep is byte-identical to the historical
	// fine-first order; only what survives a blown budget changes.
	order := make([]int, len(levels))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return levels[order[a]].scale > levels[order[b]].scale
	})

	// Cooperative cancellation: a watcher translates ctx.Done into an
	// atomic flag the workers poll once per cancelBatch windows, keeping
	// the fast path free of mutex-guarded ctx.Err calls. The watcher is
	// released as soon as scoring ends, so nothing leaks.
	var stop atomic.Bool
	if ctx.Err() != nil {
		stop.Store(true)
	}
	watchDone := make(chan struct{})
	if done := ctx.Done(); done != nil {
		go func() {
			select {
			case <-done:
				stop.Store(true)
			case <-watchDone:
			}
		}()
	}

	// Score every window. Worker w owns the windows whose in-level index
	// is congruent to w, and writes results by global index, so output
	// assembly is independent of scheduling.
	type result struct {
		hit   bool
		score float64
	}
	results := make([]result, total)
	completed := make([]int64, len(levels)) // scored windows per level, atomic
	var panics int64
	var errMu sync.Mutex
	var werrs []error
	var wg sync.WaitGroup
	scoreStart := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, i := range order {
				lv := &levels[i]
				var ls LevelScorer
				var ws WindowScorer
				if lsForks[i] != nil {
					ls = lsForks[i][w]
				} else {
					ws = wsForks[w]
				}
				n := lv.nx * lv.ny
				done := int64(0)
				for idx := w; idx < n; idx += workers {
					if done%cancelBatch == 0 && stop.Load() {
						break
					}
					x := idx % lv.nx * p.Stride
					y := idx / lv.nx * p.Stride
					hit, conf, werr := scoreOne(ls, ws, lv, i, x, y, idx, p.Win)
					if werr != nil {
						atomic.AddInt64(&panics, 1)
						obsPanics.Inc()
						errMu.Lock()
						if len(werrs) < maxWindowErrors {
							werrs = append(werrs, werr)
						}
						errMu.Unlock()
					}
					results[lv.start+idx] = result{hit, conf}
					done++
				}
				atomic.AddInt64(&completed[i], done)
				if stop.Load() {
					// Drain the remaining levels' counters untouched; the
					// per-level completion stats show where the budget died.
					break
				}
			}
		}(w)
	}
	wg.Wait()
	close(watchDone)

	// All workers are done: flush per-fork level resources (arena-backed
	// scorers batch their work accounting and per-level spans behind this).
	for _, row := range lsForks {
		for _, ls := range row {
			if c, ok := ls.(LevelCloser); ok {
				c.CloseLevel()
			}
		}
	}

	stats.Panics = panics
	stats.CompletedPerLevel = completed
	for _, c := range completed {
		stats.CompletedWindows += c
	}
	stats.Degraded = stats.CompletedWindows < stats.Windows
	if ctx.Err() != nil {
		obsCancelled.Inc()
	}
	if stats.Degraded {
		obsDegraded.Inc()
	} else if dl, ok := ctx.Deadline(); ok {
		obsSlack.Observe(time.Until(dl).Seconds())
	}

	// Trace annotations: the parallel scoring region as one span, per-level
	// completion counts on the level spans (timing per level is undefined
	// under work-stealing, so levels carry counts, not scoring time), and
	// the degraded/panic verdict on the sweep span and the trace itself.
	if tsp != nil {
		ssp := tsp.AddSpan("score", scoreStart, time.Now())
		ssp.SetAttrInt("workers", int64(workers))
		ssp.SetAttrInt("completed", stats.CompletedWindows)
		for i, lsp := range lvSpans {
			lsp.SetAttrInt("completed", completed[i])
		}
		if panics > 0 {
			ssp.SetAttrInt("panics", panics)
			tsp.SetAttr("panic", "true")
			trace.FromContext(ctx).SetError(true)
		}
		if stats.Degraded {
			tsp.SetAttr("degraded", "true")
			trace.FromContext(ctx).SetDegraded(true)
		}
	}

	var raw []Box
	for _, lv := range levels {
		n := lv.nx * lv.ny
		for idx := 0; idx < n; idx++ {
			r := results[lv.start+idx]
			if !r.hit {
				continue
			}
			x := idx % lv.nx * p.Stride
			y := idx / lv.nx * p.Stride
			raw = append(raw, Box{
				X0:    int(float64(x) * lv.scale),
				Y0:    int(float64(y) * lv.scale),
				X1:    int(math.Ceil(float64(x+p.Win) * lv.scale)),
				Y1:    int(math.Ceil(float64(y+p.Win) * lv.scale)),
				Score: r.score,
				Scale: lv.scale,
			})
		}
	}
	stats.Hits = int64(len(raw))
	obsWindows.Add(stats.CompletedWindows)
	obsHits.Add(stats.Hits)
	obsRunWindows.Observe(float64(stats.CompletedWindows))
	sp.AddItems(stats.CompletedWindows)
	err = errors.Join(werrs...)
	if p.NMSIoU < 0 {
		sortBoxes(raw)
		return raw, stats, err
	}
	return NMS(raw, p.NMSIoU), stats, err
}

// scoreOne scores a single window, converting a scorer panic into a typed
// *WindowError so one bad window cannot take down the sweep. The panicked
// window reports as a miss.
func scoreOne(ls LevelScorer, ws WindowScorer, lv *level, li, x, y, idx, win int) (hit bool, conf float64, werr *WindowError) {
	defer func() {
		if r := recover(); r != nil {
			hit, conf = false, 0
			werr = &WindowError{
				Level: li, Scale: lv.scale, X: x, Y: y, Index: idx,
				Cause: r, Stack: debug.Stack(),
			}
		}
	}()
	if ls != nil {
		hit, conf = ls.ScoreAt(x, y, idx)
		return
	}
	hit, conf = ws.ScoreWindow(lv.img.Crop(x, y, win, win))
	return
}

// Run sweeps the scorer over the image pyramid single-worker and returns
// suppressed detections in original coordinates, best score first. It is
// the legacy entry point kept for function scorers; use Sweep for
// contexts, parallelism and statistics.
func Run(img *imgproc.Image, score Scorer, p Params) ([]Box, error) {
	boxes, _, err := Sweep(context.Background(), img, score, p)
	return boxes, err
}

// sortBoxes orders boxes deterministically: score descending, then area
// descending, then X0 and Y0 ascending. The tie-break keeps equal-score
// detections from reordering across runs and worker counts.
func sortBoxes(boxes []Box) {
	sort.SliceStable(boxes, func(i, j int) bool {
		a, b := boxes[i], boxes[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		areaA := (a.X1 - a.X0) * (a.Y1 - a.Y0)
		areaB := (b.X1 - b.X0) * (b.Y1 - b.Y0)
		if areaA != areaB {
			return areaA > areaB
		}
		if a.X0 != b.X0 {
			return a.X0 < b.X0
		}
		return a.Y0 < b.Y0
	})
}

// NMS performs greedy non-maximum suppression: detections are taken in
// descending score order (ties broken by area, then position, so the
// outcome is deterministic); any remaining box overlapping a kept box by
// at least iou is dropped.
func NMS(boxes []Box, iou float64) []Box {
	obsNMSIn.Add(int64(len(boxes)))
	sorted := append([]Box(nil), boxes...)
	sortBoxes(sorted)
	var kept []Box
	for _, b := range sorted {
		suppressed := false
		for _, k := range kept {
			if IoU(b, k) >= iou {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, b)
		}
	}
	obsNMSKept.Add(int64(len(kept)))
	return kept
}

// MatchTruth greedily matches detections to ground-truth boxes at the
// given IoU threshold, returning (truePositives, falsePositives,
// falseNegatives) — the counts detection metrics build on.
func MatchTruth(dets []Box, truth [][4]int, iou float64) (tp, fp, fn int) {
	used := make([]bool, len(truth))
	sorted := append([]Box(nil), dets...)
	sortBoxes(sorted)
	for _, d := range sorted {
		matched := false
		for t, box := range truth {
			if used[t] {
				continue
			}
			gt := Box{X0: box[0], Y0: box[1], X1: box[2], Y1: box[3]}
			if IoU(d, gt) >= iou {
				used[t] = true
				matched = true
				break
			}
		}
		if matched {
			tp++
		} else {
			fp++
		}
	}
	for _, u := range used {
		if !u {
			fn++
		}
	}
	return
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
