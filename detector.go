package hdface

import (
	"fmt"

	"hdface/internal/detect"
	"hdface/internal/hdc"
	"hdface/internal/hdhog"
	"hdface/internal/hog"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/obs"
)

// Detection-scorer observability: how many sweep windows were assembled
// from cached cell-grid hypervectors versus paid for a full per-window
// extraction. A healthy StochHOG sweep is almost entirely grid windows;
// fallback extractions signal a geometry mismatch (working size, stride
// off the cell lattice) worth fixing.
var (
	obsGridWindows = obs.NewCounter("hdface_detect_grid_windows_total", "sweep windows assembled from cached cell-grid hypervectors")
	obsFullWindows = obs.NewCounter("hdface_detect_full_extractions_total", "sweep windows that required a full per-window feature extraction")
)

// Seed salts separating the detection scorer's random streams from the
// pipeline's training streams and from each other.
const (
	saltDetect = 0xdE7Ec7
	saltLevel  = 0x11e7
	saltGrid   = 0x611d
)

// FaceScorer adapts a trained binary pipeline to the detection sweep. It
// implements detect.GridScorer: for ModeStochHOG it prepares each pyramid
// level once as a hyperspace HOG cell grid and assembles window features
// from the cached cell hypervectors, and it clones itself per sweep worker.
// Every per-window random stream is reseeded from the window's deterministic
// index, so sweep output is byte-identical for any worker count.
//
// ModeOrigHOG has no cell grid: ScoreWindow extracts every window from raw
// pixels, with one classical-HOG extractor per fork.
type FaceScorer struct {
	p     *Pipeline
	model *hdc.Model
	win   int
	// geom is the square geometry features are extracted at: the pipeline
	// working size when configured (matching training), else the window.
	geom int
	seed uint64

	ext *hog.Extractor   // ModeOrigHOG: private classical-HOG extractor
	hd  *hdhog.Extractor // ModeStochHOG: private fork of the pipeline extractor

	// Hamming switches window scoring to the binarised class memory
	// (hdc.Model.ScoreBinaryHamming) instead of the float cosine
	// accumulators — the bit-serial inference mode whose packed class
	// hypervectors are what the fault harness corrupts. The model must
	// have been Finalized. Set before the first sweep.
	Hamming bool
	// Fused switches grid-capable levels to the zero-allocation fused
	// scoring kernel: window bundling, binarisation and the per-class
	// Hamming popcount run as one word-at-a-time pass over positional IDs
	// rematerialized from seeds (hdhog.FusedWindowScore), instead of
	// materialising the feature and scoring it in a second pass. Scores
	// are Hamming-mode by construction, and a fused sweep is byte-identical
	// to the two-pass path with Hamming set, at any worker count. The model
	// must have been Finalized; off-lattice windows still fall back to full
	// extraction, and BindBundle extractors (whose bundle operands are data
	// hypervectors, not rematerializable IDs) ignore the flag. Set before
	// the first sweep.
	Fused bool
	// OnGrid, when set, is installed as the hdhog.Extractor GridHook of
	// every pyramid-level extraction, handing the fault harness each
	// freshly cached cell grid to corrupt before windows are assembled
	// from it. Set before the first sweep.
	OnGrid func(*hdhog.CellGrid)
}

// DetectScorer builds a detection scorer over a trained binary model
// (pass nil to use the pipeline's own model) for win-sized sweep windows.
func (p *Pipeline) DetectScorer(model *hdc.Model, win int) (*FaceScorer, error) {
	if model == nil {
		model = p.model
	}
	if model == nil {
		return nil, fmt.Errorf("hdface: DetectScorer needs a trained model")
	}
	if model.K != 2 {
		return nil, fmt.Errorf("hdface: DetectScorer needs a binary face/non-face model, got %d classes", model.K)
	}
	if win <= 0 {
		return nil, fmt.Errorf("hdface: window size %d must be positive", win)
	}
	s := &FaceScorer{
		p:     p,
		model: model,
		win:   win,
		geom:  win,
		seed:  p.cfg.Seed ^ saltDetect,
	}
	if p.cfg.WorkingSize > 0 {
		s.geom = p.cfg.WorkingSize
	}
	switch p.cfg.Mode {
	case ModeStochHOG:
		// Warm the positional IDs for the extraction geometry before any
		// fork exists, so concurrent forks only ever read the shared map —
		// and so detection uses the same positional IDs training did.
		p.hdExt.WarmIDs(s.geom, s.geom)
		s.hd = p.hdExt.Fork()
	default:
		// Materialise the shared projection encoder now; afterwards it is
		// read-only and fork-safe.
		p.ensureEncoder(imgproc.NewImage(s.geom, s.geom))
		s.ext = hog.New(p.hogParams)
	}
	return s, nil
}

// ScoreWindow classifies one cropped window, the detect.WindowScorer
// fallback contract. Grid-capable sweeps only reach it when level
// preparation was skipped.
func (s *FaceScorer) ScoreWindow(win *imgproc.Image) (bool, float64) {
	switch s.p.cfg.Mode {
	case ModeStochHOG:
		f := s.hd.Feature(s.sized(win))
		s.p.harvest(s.hd)
		obsFullWindows.Inc()
		return s.score(f)
	default:
		feats := s.ext.Features(s.sized(win))
		s.p.mu.Lock()
		s.p.hogStats.Add(s.ext.Stats)
		s.ext.Stats = hog.Stats{}
		s.p.mu.Unlock()
		obsFullWindows.Inc()
		return s.score(s.p.encode(feats))
	}
}

// score classifies one feature hypervector through the configured inference
// mode: float cosine accumulators by default, the binarised class memory
// when Hamming is set.
func (s *FaceScorer) score(f *hv.Vector) (bool, float64) {
	if s.Hamming {
		return s.model.ScoreBinaryHamming(f)
	}
	return s.model.ScoreBinary(f)
}

// sized resizes a window to the extraction geometry if needed.
func (s *FaceScorer) sized(img *imgproc.Image) *imgproc.Image {
	if img.W != s.geom || img.H != s.geom {
		return img.Resize(s.geom, s.geom)
	}
	return img
}

// Fork implements detect.Forker: the clone owns a private extractor.
func (s *FaceScorer) Fork() detect.WindowScorer {
	c := *s
	switch s.p.cfg.Mode {
	case ModeStochHOG:
		c.hd = s.hd.Fork()
	default:
		c.ext = hog.New(s.p.hogParams)
	}
	return &c
}

// PrepareLevel implements detect.GridScorer. For ModeStochHOG every level
// gets a LevelScorer whose per-window streams are keyed on (level, window
// index); when the sweep geometry sits on the cell lattice it additionally
// extracts the level's cell grid once, with workers-way parallelism, and
// windows are assembled from cached cells. ModeOrigHOG returns nil and
// falls back to ScoreWindow.
func (s *FaceScorer) PrepareLevel(level *imgproc.Image, levelIdx, win, workers int) detect.LevelScorer {
	if s.p.cfg.Mode != ModeStochHOG {
		return nil
	}
	l := &faceLevelScorer{
		s:       s,
		ext:     s.hd.Fork(),
		level:   level,
		win:     win,
		lvlSeed: hv.Mix64(s.seed, saltLevel+uint64(levelIdx)),
	}
	l.ext.GridHook = s.OnGrid
	cs := s.hd.P.CellSize
	// The cell grid yields features at exactly win x win, so it applies
	// only when that matches the geometry the model was trained at, and
	// when windows tile whole cells.
	if win == s.win && win == s.geom && win%cs == 0 &&
		level.W >= win && level.H >= win {
		l.grid = l.ext.LevelGrid(level, hv.Mix64(l.lvlSeed, saltGrid), workers)
		l.winCells = win / cs
		s.p.harvest(l.ext)
		if s.Fused && !s.hd.P.BindBundle {
			// BinWords panics before Finalize — the same precondition
			// Hamming-mode scoring already imposes.
			l.classes = s.model.BinWords()
			l.arena = hdhog.NewScoreArena(s.model.D, l.winCells, s.hd.P.Bins, len(l.classes))
		}
		// One encode span per level fork (ended in CloseLevel) replaces the
		// old per-window spans: same stage, items = windows assembled.
		l.sp = obs.StartSpan("encode")
	}
	return l
}

// faceLevelScorer scores one pyramid level for a StochHOG FaceScorer.
type faceLevelScorer struct {
	s        *FaceScorer
	ext      *hdhog.Extractor
	level    *imgproc.Image
	grid     *hdhog.CellGrid // nil when the geometry is off the cell lattice
	win      int
	winCells int
	lvlSeed  uint64

	// Fused-path state, exclusively owned by this fork: the packed class
	// memory view, the reusable scoring arena, the per-level encode span
	// and the count of grid windows it will carry. classes/arena are nil
	// when the scorer is not fused or the level has no grid.
	classes [][]uint64
	arena   *hdhog.ScoreArena
	sp      *obs.Span
	windows int64
}

// ScoreAt scores the window at (x, y). The extractor reseeds from the
// window index first, making the result a pure function of (scorer state,
// level, index) — the determinism contract the parallel sweep relies on.
func (l *faceLevelScorer) ScoreAt(x, y, idx int) (bool, float64) {
	l.ext.Reseed(hv.Mix64(l.lvlSeed, uint64(idx)))
	cs := l.ext.P.CellSize
	if l.grid != nil && x%cs == 0 && y%cs == 0 {
		l.windows++
		obsGridWindows.Inc()
		if l.arena != nil {
			// Fused path: bundle, binarise and popcount in one pass; no
			// feature materialisation, no per-window harvest (grid window
			// assembly runs no codec ops — counters batch in CloseLevel).
			d := l.ext.FusedWindowScore(l.grid, x/cs, y/cs, l.winCells, l.classes, l.arena)
			return l.s.model.ScoreBinaryFromDistances(d[0], d[1])
		}
		f := l.ext.WindowFeature(l.grid, x/cs, y/cs, l.winCells)
		return l.s.score(f)
	}
	f := l.ext.Feature(l.s.sized(l.level.Crop(x, y, l.win, l.win)))
	obsFullWindows.Inc()
	l.s.p.harvest(l.ext)
	return l.s.score(f)
}

// Fork clones the level scorer for another sweep worker; the cell grid and
// class memory are immutable and shared, while the extractor, arena and
// encode span are per-fork owned state.
func (l *faceLevelScorer) Fork() detect.LevelScorer {
	c := *l
	c.ext = l.ext.Fork()
	if l.arena != nil {
		c.arena = hdhog.NewScoreArena(l.s.model.D, l.winCells, c.ext.P.Bins, len(l.classes))
	}
	c.windows = 0
	c.sp = nil
	if l.grid != nil {
		c.sp = obs.StartSpan("encode")
	}
	return &c
}

// CloseLevel implements detect.LevelCloser: called serially by the sweep
// after all workers finish, it ends the fork's per-level encode span with
// its window count and folds the fork's extractor work counters into the
// pipeline once — bookkeeping the per-window hot path no longer pays.
func (l *faceLevelScorer) CloseLevel() {
	l.sp.AddItems(l.windows)
	l.sp.End()
	l.sp = nil
	l.windows = 0
	l.s.p.harvest(l.ext)
}
