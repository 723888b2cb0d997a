// Package hdface is the public API of the HDFace reproduction: robust,
// efficient face and emotion detection with hyperdimensional computing
// (Imani et al., "Neural Computation for Robust and Holographic Face
// Detection", DAC 2022).
//
// A Pipeline bundles a feature front-end and the adaptive HDC classifier.
// Two front-ends correspond to the paper's configurations:
//
//   - ModeStochHOG ("HDFace+HoG+Learn"): HOG computed entirely in
//     hyperspace with stochastic arithmetic over binary hypervectors; the
//     extractor output is already a hypervector, so no encoder is needed
//     and the whole pipeline inherits holographic noise tolerance.
//   - ModeOrigHOG ("HDFace+Learn"): classical floating-point HOG on the
//     original representation, mapped to hyperspace with a nonlinear
//     random-projection encoder.
//
// Quickstart:
//
//	p := hdface.New(hdface.Config{D: 4096, Mode: hdface.ModeStochHOG})
//	p.Fit(trainImages, trainLabels, numClasses)
//	label := p.Predict(queryImage)
package hdface

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hdface/internal/encoder"
	"hdface/internal/hdc"
	"hdface/internal/hdhog"
	"hdface/internal/hog"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/obs"
	"hdface/internal/stoch"
)

// Pipeline-level observability: stage spans cover the coarse phases
// (extract, encode, fit, evaluate; internal/hdc adds hdc_bootstrap,
// hdc_adaptive and predict), while the worker gauge records the effective
// extraction parallelism. All of it is inert unless obs is enabled.
var (
	obsWorkers = obs.NewGauge("hdface_pipeline_workers", "configured feature-extraction parallelism")
	obsImages  = obs.NewCounter("hdface_pipeline_images_total", "images run through feature extraction")
	obsEncMACs = obs.NewCounter("hdface_pipeline_encoder_macs_total", "projection-encoder multiply-accumulates")
)

// Image is the grayscale raster type consumed by pipelines.
type Image = imgproc.Image

// Mode selects the feature front-end.
type Mode int

// Front-end modes.
const (
	// ModeStochHOG runs HOG in hyperspace (paper configuration 2).
	ModeStochHOG Mode = iota
	// ModeOrigHOG runs classical HOG plus a nonlinear encoder (paper
	// configuration 1).
	ModeOrigHOG
)

// String names the mode as the paper's Table 2 rows do.
func (m Mode) String() string {
	switch m {
	case ModeStochHOG:
		return "HDFace+HoG+Learn"
	case ModeOrigHOG:
		return "HDFace+Learn"
	}
	return "unknown"
}

// Config configures a Pipeline.
type Config struct {
	// D is the hypervector dimensionality for both feature extraction and
	// learning (default 4096, the paper's best-tradeoff configuration).
	D int
	// Mode selects the front-end (default ModeStochHOG).
	Mode Mode
	// WorkingSize, when nonzero, bilinearly resizes every image to
	// WorkingSize x WorkingSize before feature extraction — how the
	// large-raster FACE1/FACE2 datasets are made tractable.
	WorkingSize int
	// Workers bounds feature-extraction parallelism (default NumCPU).
	Workers int
	// Seed drives every random choice; identical configs with identical
	// seeds produce identical models.
	Seed uint64
	// Train configures the HDC learner.
	Train hdc.TrainOpts
	// SqrtIterations overrides the stochastic square-root search depth.
	SqrtIterations int
	// Stride spaces the gradient sites of the hyperspace HOG. The default
	// 1 evaluates per-pixel gradients like classical HOG; 3 reproduces
	// the paper's one-gradient-per-3x3-cell variant at a ninth of the
	// cost (see the ablation benches).
	Stride int
}

func (c Config) withDefaults() Config {
	if c.D == 0 {
		c.D = 4096
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Stride == 0 {
		c.Stride = 1
	}
	return c
}

// Pipeline is a feature front-end plus an HDC classifier.
type Pipeline struct {
	cfg   Config
	hdExt *hdhog.Extractor
	mu    sync.Mutex

	// ModeOrigHOG state; the encoder is created on the first image, when
	// the HOG feature length becomes known.
	hogParams hog.Params
	enc       *encoder.Projection

	model *hdc.Model

	// aggregated work counters for the hardware model
	stochStats stoch.Stats
	hogStats   hog.Stats
	encMACs    int64
	pixels     int64
}

// New builds a pipeline from the configuration.
func New(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	obsWorkers.Set(float64(cfg.Workers))
	p := &Pipeline{cfg: cfg, hogParams: hog.DefaultParams()}
	if cfg.Mode == ModeStochHOG {
		opts := []stoch.Option{}
		if cfg.SqrtIterations > 0 {
			opts = append(opts, stoch.WithSqrtIterations(cfg.SqrtIterations))
		}
		hp := hdhog.DefaultParams()
		hp.Stride = cfg.Stride
		p.hdExt = hdhog.New(stoch.NewCodec(cfg.D, cfg.Seed^0xcafe, opts...), hp)
	}
	return p
}

// Config returns the effective (defaults-filled) configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Model exposes the trained classifier (nil before Fit).
func (p *Pipeline) Model() *hdc.Model { return p.model }

// prepare resizes an image to the working size if configured.
func (p *Pipeline) prepare(img *Image) *Image {
	if p.cfg.WorkingSize > 0 && (img.W != p.cfg.WorkingSize || img.H != p.cfg.WorkingSize) {
		return img.Resize(p.cfg.WorkingSize, p.cfg.WorkingSize)
	}
	return img
}

// saltFeature decorrelates per-image reseed streams from every other
// consumer of cfg.Seed (codec, encoder, finalize, detection salts).
const saltFeature = 0xfea7

// featureSeed derives a deterministic reseed value for one prepared image:
// FNV-1a over the raster (dimensions then pixels) mixed with the pipeline
// seed. Reseeding the extractor with it before every extraction makes
// Feature a pure function of (Config, image) — independent of how many
// images the pipeline saw before, which worker handled it, or how requests
// were batched — the property that lets a serving daemon and a freshly
// loaded snapshot reproduce each other bit for bit.
func (p *Pipeline) featureSeed(img *Image) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(img.W)) * prime64
	h = (h ^ uint64(img.H)) * prime64
	for _, px := range img.Pix {
		h = (h ^ uint64(px)) * prime64
	}
	return hv.Mix64(p.cfg.Seed^saltFeature, h)
}

// ensureEncoder lazily builds the projection encoder for ModeOrigHOG.
func (p *Pipeline) ensureEncoder(img *Image) {
	if p.enc != nil {
		return
	}
	e := hog.New(p.hogParams)
	n := e.FeatureLen(img.W, img.H)
	p.enc = encoder.NewProjection(p.cfg.D, n, p.cfg.Seed^0xe0c0)
}

// Feature maps one image to its hypervector. For ModeStochHOG the extractor
// is reseeded from the image content, and its positional IDs are pure
// functions of (D, cell, bin) whatever order they were created in, so the
// result is a pure function of (Config, image) at any geometry: the same
// image yields the same hypervector no matter what the pipeline extracted
// before.
func (p *Pipeline) Feature(img *Image) *hv.Vector {
	sp := obs.StartSpan("extract")
	defer sp.End()
	sp.AddItems(1)
	obsImages.Inc()
	img = p.prepare(img)
	switch p.cfg.Mode {
	case ModeStochHOG:
		p.hdExt.WarmIDs(img.W, img.H)
		p.hdExt.Reseed(p.featureSeed(img))
		f := p.hdExt.Feature(img)
		p.harvest(p.hdExt)
		return f
	default:
		p.ensureEncoder(img)
		e := hog.New(p.hogParams)
		feats := e.Features(img)
		p.hogStats.Add(e.Stats)
		v := p.encode(feats)
		return v
	}
}

// encode maps an original-space feature vector to hyperspace through the
// projection encoder, under its own stage span.
func (p *Pipeline) encode(feats []float64) *hv.Vector {
	sp := obs.StartSpan("encode")
	defer sp.End()
	sp.AddItems(1)
	v := p.enc.Encode(feats)
	macs := int64(p.enc.D()) * int64(p.enc.Features())
	p.mu.Lock()
	p.encMACs += macs
	p.mu.Unlock()
	obsEncMACs.Add(macs)
	return v
}

// harvest folds a (possibly forked) extractor's counters into the pipeline.
func (p *Pipeline) harvest(e *hdhog.Extractor) {
	p.mu.Lock()
	p.stochStats.Add(e.Codec().Stats)
	e.Codec().Stats = stoch.Stats{}
	p.pixels += e.Pixels
	e.Pixels = 0
	p.mu.Unlock()
}

// Features maps a batch of images to hypervectors with Workers-way
// parallelism. Each image is extracted under its content-derived reseed
// (see Feature), so every element is a pure function of (Config, image):
// the output is independent of batch composition, ordering of other
// images, and worker count.
func (p *Pipeline) Features(imgs []*Image) []*hv.Vector {
	out, _ := p.FeaturesContext(context.Background(), imgs)
	return out
}

// cancelFlag mirrors ctx cancellation into an atomic flag worker loops can
// poll cheaply. The returned release function must be called (once the
// guarded work is done) so the watcher goroutine exits.
func cancelFlag(ctx context.Context) (*atomic.Bool, func()) {
	var stop atomic.Bool
	if ctx.Err() != nil {
		stop.Store(true)
	}
	done := ctx.Done()
	if done == nil {
		return &stop, func() {}
	}
	release := make(chan struct{})
	go func() {
		select {
		case <-done:
			stop.Store(true)
		case <-release:
		}
	}()
	var once sync.Once
	return &stop, func() { once.Do(func() { close(release) }) }
}

// FeaturesContext is Features under a context: extraction workers check
// the context between images and stop early when it is cancelled or its
// deadline expires, in which case the error is ctx.Err() and the feature
// slice is nil — unlike a degraded detection sweep, a training batch with
// holes is useless, so partial extraction is an error, not a result.
func (p *Pipeline) FeaturesContext(ctx context.Context, imgs []*Image) ([]*hv.Vector, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]*hv.Vector, len(imgs))
	if len(imgs) == 0 {
		return out, ctx.Err()
	}
	sp := obs.StartSpan("extract_batch")
	defer sp.End()
	sp.AddItems(int64(len(imgs)))
	workers := p.cfg.Workers
	if workers > len(imgs) {
		workers = len(imgs)
	}
	stop, release := cancelFlag(ctx)
	defer release()
	switch p.cfg.Mode {
	case ModeStochHOG:
		obsImages.Add(int64(len(imgs)))
		// Warm positional IDs for the batch's largest cell grid before
		// forking, so workers only ever read the shared map. IDs are keyed
		// by linear cell index, so that grid covers every smaller one.
		ww, wh := p.cfg.WorkingSize, p.cfg.WorkingSize
		if ww <= 0 {
			ww, wh = 0, 0
			cs := p.hdExt.P.CellSize
			for _, img := range imgs {
				if (img.W/cs)*(img.H/cs) > (ww/cs)*(wh/cs) {
					ww, wh = img.W, img.H
				}
			}
		}
		p.hdExt.WarmIDs(ww, wh)
		// Fork every worker's extractor before launching any goroutine:
		// Fork draws from the parent RNG, so it must not overlap with
		// worker 0 mutating the parent.
		exts := make([]*hdhog.Extractor, workers)
		exts[0] = p.hdExt
		for w := 1; w < workers; w++ {
			exts[w] = p.hdExt.Fork()
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, ext *hdhog.Extractor) {
				defer wg.Done()
				for i := w; i < len(imgs); i += workers {
					if stop.Load() {
						break
					}
					img := p.prepare(imgs[i])
					ext.Reseed(p.featureSeed(img))
					out[i] = ext.Feature(img)
				}
				p.harvest(ext)
			}(w, exts[w])
		}
		wg.Wait()
	default:
		// ModeOrigHOG: encoder is shared read-only after creation.
		obsImages.Add(int64(len(imgs)))
		p.ensureEncoder(p.prepare(imgs[0]))
		var wg sync.WaitGroup
		var mu sync.Mutex
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				e := hog.New(p.hogParams)
				for i := w; i < len(imgs); i += workers {
					if stop.Load() {
						break
					}
					img := p.prepare(imgs[i])
					feats := e.Features(img)
					out[i] = p.encode(feats)
				}
				mu.Lock()
				p.hogStats.Add(e.Stats)
				mu.Unlock()
			}(w)
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Fit extracts features for the labelled images and trains the classifier.
func (p *Pipeline) Fit(imgs []*Image, labels []int, numClasses int) error {
	return p.FitContext(context.Background(), imgs, labels, numClasses)
}

// FitContext is Fit under a context: cancellation aborts between feature
// extraction batches and before training, leaving the previous model (if
// any) untouched.
func (p *Pipeline) FitContext(ctx context.Context, imgs []*Image, labels []int, numClasses int) error {
	if len(imgs) == 0 || len(imgs) != len(labels) {
		return fmt.Errorf("hdface: %d images vs %d labels", len(imgs), len(labels))
	}
	sp := obs.StartSpan("fit")
	defer sp.End()
	sp.AddItems(int64(len(imgs)))
	feats, err := p.FeaturesContext(ctx, imgs)
	if err != nil {
		return err
	}
	opts := p.cfg.Train
	if opts.Seed == 0 {
		opts.Seed = p.cfg.Seed
	}
	m, err := hdc.Train(feats, labels, numClasses, opts)
	if err != nil {
		return err
	}
	m.Finalize(p.cfg.Seed ^ 0xf1a1)
	p.model = m
	return nil
}

// FitFeatures trains directly on precomputed hypervector features.
func (p *Pipeline) FitFeatures(feats []*hv.Vector, labels []int, numClasses int) error {
	opts := p.cfg.Train
	if opts.Seed == 0 {
		opts.Seed = p.cfg.Seed
	}
	m, err := hdc.Train(feats, labels, numClasses, opts)
	if err != nil {
		return err
	}
	m.Finalize(p.cfg.Seed ^ 0xf1a1)
	p.model = m
	return nil
}

// SetModel rebinds the pipeline to an externally trained (or registry
// loaded) model. The model must match the pipeline's dimensionality; the
// hypervector bases stay untouched, so features extracted before and
// after the swap are identical.
func (p *Pipeline) SetModel(m *hdc.Model) error {
	if m == nil {
		return fmt.Errorf("hdface: SetModel: nil model")
	}
	if m.D != p.cfg.D {
		return fmt.Errorf("hdface: SetModel: model D=%d, pipeline D=%d", m.D, p.cfg.D)
	}
	p.model = m
	return nil
}

// Predict classifies one image. It panics if Fit has not run.
func (p *Pipeline) Predict(img *Image) int {
	if p.model == nil {
		panic("hdface: Predict before Fit")
	}
	return p.model.Predict(p.Feature(img))
}

// Scores returns per-class similarities for one image.
func (p *Pipeline) Scores(img *Image) []float64 {
	if p.model == nil {
		panic("hdface: Scores before Fit")
	}
	return p.model.Scores(p.Feature(img))
}

// Evaluate returns accuracy over a labelled test set, extracting features
// in parallel.
func (p *Pipeline) Evaluate(imgs []*Image, labels []int) float64 {
	if p.model == nil {
		panic("hdface: Evaluate before Fit")
	}
	if len(imgs) == 0 {
		return 0
	}
	sp := obs.StartSpan("evaluate")
	defer sp.End()
	sp.AddItems(int64(len(imgs)))
	feats := p.Features(imgs)
	return p.model.Accuracy(feats, labels)
}

// WorkStats summarises the computational work the pipeline has performed,
// for the hardware model.
type WorkStats struct {
	Stoch   stoch.Stats
	HOG     hog.Stats
	EncMACs int64
	Pixels  int64
}

// Work returns a snapshot of the pipeline's aggregated work counters.
func (p *Pipeline) Work() WorkStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return WorkStats{Stoch: p.stochStats, HOG: p.hogStats, EncMACs: p.encMACs, Pixels: p.pixels}
}

// ResetWork clears the aggregated work counters (e.g. to separate the
// training phase from inference when building hardware traces).
func (p *Pipeline) ResetWork() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stochStats = stoch.Stats{}
	p.hogStats = hog.Stats{}
	p.encMACs = 0
	p.pixels = 0
}
