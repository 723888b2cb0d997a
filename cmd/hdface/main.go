// Command hdface trains, evaluates and applies HDFace models.
//
//	hdface train  -dataset emotion -d 4096 -model emotion.hdc
//	hdface eval   -dataset emotion -model emotion.hdc
//	hdface detect -scene scene.pgm -model face.hdc -out overlay.pgm
//	hdface scene  -out scene.pgm            # render a test scene
//	hdface serve  -snapshot face.hdfs -addr :8466
//	hdface stream -addr localhost:8466 -scenario crossing -n 20
//	hdface route  -replicas http://h1:8466,http://h2:8466 -addr :8465
//	hdface top    -addr localhost:8466
//	hdface models -registry models/ [-promote N | -rollback]
//
// Models are serialised HDC classifiers; pipeline snapshots (train
// -snapshot) additionally carry the full configuration so a daemon can
// rematerialise the front-end; datasets are generated synthetically (see
// DESIGN.md for the substitution rationale).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/detect"
	"hdface/internal/hdc"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/obs/trace"
	"hdface/internal/obscli"
	"hdface/internal/online"
	"hdface/internal/registry"
	"hdface/internal/serve"
	"hdface/internal/tenant"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hdface:", err)
	os.Exit(1)
}

func specFor(name string) (dataset.Spec, error) {
	switch strings.ToLower(name) {
	case "emotion":
		return dataset.SpecEmotion, nil
	case "face1":
		return dataset.SpecFace1, nil
	case "face2":
		return dataset.SpecFace2, nil
	}
	return dataset.Spec{}, fmt.Errorf("unknown dataset %q (emotion, face1, face2)", name)
}

// buildPipeline assembles the pipeline used by train/eval/detect so the
// three subcommands agree on configuration.
func buildPipeline(d, workingSize, workers int, mode string, seed uint64) (*hdface.Pipeline, error) {
	var m hdface.Mode
	switch strings.ToLower(mode) {
	case "stoch", "":
		m = hdface.ModeStochHOG
	case "orig":
		m = hdface.ModeOrigHOG
	default:
		return nil, fmt.Errorf("unknown mode %q (stoch, orig)", mode)
	}
	if workers < 1 {
		return nil, fmt.Errorf("-workers %d must be positive (default: all %d CPUs)", workers, runtime.NumCPU())
	}
	return hdface.New(hdface.Config{D: d, Mode: m, WorkingSize: workingSize, Seed: seed, Workers: workers}), nil
}

// workersFlag installs the shared -workers flag (satellite of the obs PR:
// the CLI used to hard-code Workers: 1, leaving the pipeline's parallelism
// unused).
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", runtime.NumCPU(), "feature-extraction parallelism")
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	dsName := fs.String("dataset", "emotion", "dataset to generate (emotion, face1, face2)")
	d := fs.Int("d", 4096, "hypervector dimensionality")
	mode := fs.String("mode", "stoch", "feature mode (stoch, orig)")
	trainN := fs.Int("n", 140, "training samples to render")
	testN := fs.Int("test", 70, "test samples to render")
	workingSize := fs.Int("size", 48, "working raster size")
	seed := fs.Uint64("seed", 7, "random seed")
	modelPath := fs.String("model", "model.hdc", "output model path")
	snapPath := fs.String("snapshot", "", "also write a pipeline snapshot (config + model) for the serve subcommand")
	featPath := fs.String("features", "", "train from a feature cache written by the features subcommand (skips rendering and extraction)")
	k := fs.Int("k", 0, "class count when training from a feature cache (0 = infer from labels)")
	workers := workersFlag(fs)
	of := obscli.Register(fs)
	fs.Parse(args)
	of.Activate(map[string]string{
		"cmd": "train", "dataset": *dsName, "mode": *mode,
		"d": strconv.Itoa(*d), "seed": strconv.FormatUint(*seed, 10),
	})

	if *featPath != "" {
		if err := trainFromCache(*featPath, *modelPath, *k, *seed); err != nil {
			return err
		}
		return of.Finish()
	}

	spec, err := specFor(*dsName)
	if err != nil {
		return err
	}
	if spec.ImageSize > 128 {
		spec.ImageSize = 128 // render large-raster corpora at a tractable size
	}
	ds := dataset.Generate(spec, *trainN, *testN, *seed)
	imgs := make([]*hdface.Image, len(ds.Train))
	labels := make([]int, len(ds.Train))
	for i, s := range ds.Train {
		imgs[i], labels[i] = s.Image, s.Label
	}
	p, err := buildPipeline(*d, *workingSize, *workers, *mode, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("training %s on %s (%d samples, D=%d, %s)\n",
		*modelPath, ds.Name, len(imgs), *d, p.Config().Mode)
	if err := p.Fit(imgs, labels, ds.NumClasses); err != nil {
		return err
	}
	testImgs := make([]*hdface.Image, len(ds.Test))
	testLabels := make([]int, len(ds.Test))
	for i, s := range ds.Test {
		testImgs[i], testLabels[i] = s.Image, s.Label
	}
	fmt.Printf("test accuracy: %.3f\n", p.Evaluate(testImgs, testLabels))

	f, err := os.Create(*modelPath)
	if err != nil {
		return err
	}
	if err := p.Model().Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if *snapPath != "" {
		if err := p.SaveSnapshotFile(*snapPath); err != nil {
			return err
		}
		fmt.Printf("pipeline snapshot written to %s\n", *snapPath)
	}
	return of.Finish()
}

// trainFromCache trains a classifier directly on cached hypervector
// features. It trains through Pipeline.FitFeatures, as train does through
// Fit, so the same features and seed give a byte-identical model file.
func trainFromCache(featPath, modelPath string, k int, seed uint64) error {
	f, err := os.Open(featPath)
	if err != nil {
		return err
	}
	feats, labels, err := hv.ReadSet(f)
	f.Close()
	if err != nil {
		return err
	}
	if k == 0 {
		for _, l := range labels {
			if l+1 > k {
				k = l + 1
			}
		}
	}
	if k < 2 {
		return fmt.Errorf("inferred class count %d; pass -k", k)
	}
	p := hdface.New(hdface.Config{D: feats[0].D(), Seed: seed})
	if err := p.FitFeatures(feats, labels, k); err != nil {
		return err
	}
	model := p.Model()
	fmt.Printf("trained on %d cached features (D=%d, k=%d); train accuracy %.3f\n",
		len(feats), model.D, k, model.Accuracy(feats, labels))
	out, err := os.Create(modelPath)
	if err != nil {
		return err
	}
	defer out.Close()
	return model.Save(out)
}

// cmdFeatures extracts hypervector features for a generated dataset and
// writes them to a cache file, so repeated training runs skip the
// (dominant) extraction cost.
func cmdFeatures(args []string) error {
	fs := flag.NewFlagSet("features", flag.ExitOnError)
	dsName := fs.String("dataset", "emotion", "dataset to generate")
	d := fs.Int("d", 4096, "hypervector dimensionality")
	mode := fs.String("mode", "stoch", "feature mode (stoch, orig)")
	n := fs.Int("n", 140, "samples to render")
	workingSize := fs.Int("size", 48, "working raster size")
	seed := fs.Uint64("seed", 7, "random seed")
	out := fs.String("out", "features.hvf", "output cache path")
	workers := workersFlag(fs)
	of := obscli.Register(fs)
	fs.Parse(args)
	of.Activate(map[string]string{
		"cmd": "features", "dataset": *dsName, "mode": *mode,
		"d": strconv.Itoa(*d), "seed": strconv.FormatUint(*seed, 10),
	})

	spec, err := specFor(*dsName)
	if err != nil {
		return err
	}
	if spec.ImageSize > 128 {
		spec.ImageSize = 128
	}
	ds := dataset.Generate(spec, *n, 0, *seed)
	imgs := make([]*hdface.Image, len(ds.Train))
	labels := make([]int, len(ds.Train))
	for i, s := range ds.Train {
		imgs[i], labels[i] = s.Image, s.Label
	}
	p, err := buildPipeline(*d, *workingSize, *workers, *mode, *seed)
	if err != nil {
		return err
	}
	feats := p.Features(imgs)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := hv.WriteSet(f, feats, labels); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%d features (D=%d) cached to %s\n", len(feats), *d, *out)
	return of.Finish()
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	dsName := fs.String("dataset", "emotion", "dataset to generate")
	d := fs.Int("d", 4096, "hypervector dimensionality (must match training)")
	mode := fs.String("mode", "stoch", "feature mode (must match training)")
	testN := fs.Int("n", 70, "test samples")
	workingSize := fs.Int("size", 48, "working raster size")
	seed := fs.Uint64("seed", 7, "random seed (must match training for feature compatibility)")
	modelPath := fs.String("model", "model.hdc", "model path")
	workers := workersFlag(fs)
	of := obscli.Register(fs)
	fs.Parse(args)
	of.Activate(map[string]string{
		"cmd": "eval", "dataset": *dsName, "mode": *mode,
		"d": strconv.Itoa(*d), "seed": strconv.FormatUint(*seed, 10),
	})

	spec, err := specFor(*dsName)
	if err != nil {
		return err
	}
	if spec.ImageSize > 128 {
		spec.ImageSize = 128
	}
	ds := dataset.Generate(spec, 0, *testN, *seed+1)
	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	model, err := hdc.Load(f)
	f.Close()
	if err != nil {
		return err
	}
	p, err := buildPipeline(*d, *workingSize, *workers, *mode, *seed)
	if err != nil {
		return err
	}
	correct := 0
	for _, s := range ds.Test {
		if model.Predict(p.Feature(s.Image)) == s.Label {
			correct++
		}
	}
	fmt.Printf("accuracy on %d fresh %s samples: %.3f\n",
		len(ds.Test), ds.Name, float64(correct)/float64(len(ds.Test)))
	return of.Finish()
}

func cmdScene(args []string) error {
	fs := flag.NewFlagSet("scene", flag.ExitOnError)
	out := fs.String("out", "scene.pgm", "output PGM path")
	w := fs.Int("w", 192, "scene width")
	h := fs.Int("h", 144, "scene height")
	faces := fs.Int("faces", 2, "faces to place")
	seed := fs.Uint64("seed", 7, "random seed")
	fs.Parse(args)
	sc := dataset.GenerateScene(*w, *h, 48, *faces, *seed)
	fmt.Printf("scene with %d faces at %v\n", len(sc.Faces), sc.Faces)
	return sc.Image.SavePGM(*out)
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	scenePath := fs.String("scene", "scene.pgm", "input scene PGM")
	modelPath := fs.String("model", "model.hdc", "binary face model (train with -dataset face2)")
	out := fs.String("out", "overlay.pgm", "output overlay PGM")
	d := fs.Int("d", 4096, "hypervector dimensionality (must match training)")
	mode := fs.String("mode", "stoch", "feature mode (must match training)")
	win := fs.Int("win", 48, "window size")
	stride := fs.Int("stride", 24, "window stride")
	scales := fs.String("scales", "1,1.5,2", "comma-separated pyramid scales")
	nms := fs.Float64("nms", 0.3, "non-maximum suppression IoU threshold (negative disables)")
	workingSize := fs.Int("size", 48, "working raster size")
	seed := fs.Uint64("seed", 7, "random seed (must match training)")
	deadline := fs.Duration("deadline", 0, "sweep time budget; on expiry the best-so-far boxes are returned flagged DEGRADED (0 = none)")
	workers := workersFlag(fs)
	of := obscli.Register(fs)
	fs.Parse(args)
	of.Activate(map[string]string{
		"cmd": "detect", "scene": *scenePath, "mode": *mode,
		"d": strconv.Itoa(*d), "seed": strconv.FormatUint(*seed, 10),
	})

	img, err := imgproc.LoadPGM(*scenePath)
	if err != nil {
		return err
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	model, err := hdc.Load(f)
	f.Close()
	if err != nil {
		return err
	}
	if model.K != 2 {
		return fmt.Errorf("detect needs a binary face model, got %d classes", model.K)
	}
	p, err := buildPipeline(*d, *workingSize, *workers, *mode, *seed)
	if err != nil {
		return err
	}
	var scaleList []float64
	for _, tok := range strings.Split(*scales, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return fmt.Errorf("bad scale %q: %w", tok, err)
		}
		scaleList = append(scaleList, v)
	}
	scorer, err := p.DetectScorer(model, *win)
	if err != nil {
		return err
	}
	// SIGINT/SIGTERM cancel the detection context instead of killing the
	// process mid-sweep: the pool drains and the boxes scored so far are
	// still printed (and overlaid), flagged DEGRADED. A -deadline budget
	// rides the same context.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *deadline > 0 {
		var cancelDL context.CancelFunc
		ctx, cancelDL = context.WithTimeout(ctx, *deadline)
		defer cancelDL()
	}
	// With -trace-dump the sweep records a trace (nil and free otherwise),
	// so the CLI can emit the same per-level span tree the daemon serves
	// from /debug/traces.
	tr := trace.New("detect", "")
	boxes, stats, err := detect.Sweep(trace.NewContext(ctx, tr), img, scorer, detect.Params{
		Win: *win, Stride: *stride, Scales: scaleList, NMSIoU: *nms,
		Workers: p.Config().Workers})
	tr.Finish()
	if err != nil {
		return err
	}
	fmt.Printf("swept %d windows over %d levels (%d level-prepared, %d crop-fallback, %d workers, %d levels skipped)\n",
		stats.Windows, stats.Levels, stats.PreparedWindows, stats.FallbackWindows,
		stats.Workers, stats.SkippedLevels)
	if stats.Degraded {
		fmt.Printf("DEGRADED: sweep stopped after %d/%d windows (%v); results are best-so-far\n",
			stats.CompletedWindows, stats.Windows, context.Cause(ctx))
	}
	overlay := img.Clone()
	for _, b := range boxes {
		overlay.StrokeRect(b.X0, b.Y0, b.X1, b.Y1, 255)
		fmt.Printf("  box (%d,%d)-(%d,%d) score %.3f scale %.2g\n",
			b.X0, b.Y0, b.X1, b.Y1, b.Score, b.Scale)
	}
	fmt.Printf("%d detections; overlay written to %s\n", len(boxes), *out)
	if err := overlay.SavePGM(*out); err != nil {
		return err
	}
	return of.Finish()
}

// cmdServe runs the long-lived inference daemon over a pipeline snapshot:
// /predict and /detect with micro-batched admission control, /healthz and
// /metrics, graceful drain on SIGINT/SIGTERM.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	snapPath := fs.String("snapshot", "model.hdfs", "pipeline snapshot to serve (train -snapshot)")
	addr := fs.String("addr", ":8466", "listen address (use :0 for an ephemeral port; the bound address is printed)")
	maxBatch := fs.Int("max-batch", 8, "max /predict requests merged into one extraction batch")
	maxQueue := fs.Int("max-queue", 64, "max queued jobs before requests are shed with 503")
	flush := fs.Duration("flush", 2*time.Millisecond, "max time a partial batch waits for stragglers")
	deadline := fs.Duration("deadline", 30*time.Second, "max (and default) per-request /detect budget; blown budgets return best-so-far boxes flagged degraded")
	win := fs.Int("win", 0, "detection window size (0 = snapshot working size)")
	stride := fs.Int("stride", 0, "detection window stride (0 = win/2)")
	workers := fs.Int("workers", 0, "override extraction parallelism (0 = snapshot setting)")
	regDir := fs.String("registry", "", "model registry directory for versioned hot-swap (empty = in-memory)")
	retain := fs.Int("retain", 8, "max model versions the registry keeps (<=0 keeps all)")
	onlineOn := fs.Bool("online", false, "enable POST /feedback online learning")
	onlineBatch := fs.Int("online-batch", 32, "feedback samples per refinement round")
	replicaID := fs.String("replica-id", "", "this replica's name in a routed fleet (labels its feedback delta)")
	deltaOnly := fs.Bool("delta-only", false, "accumulate feedback into the delta only; model updates arrive via the router's merge (implies -online)")
	sloTarget := fs.Duration("slo-target", 250*time.Millisecond, "per-request latency goal of the /debug/slo objects")
	sloObjective := fs.Float64("slo-objective", 0.99, "fraction of requests that must meet -slo-target")
	sloWindow := fs.Duration("slo-window", time.Minute, "sliding window the SLOs and latency quantiles evaluate over")
	frameDeadline := fs.Duration("frame-deadline", 250*time.Millisecond, "default per-frame /stream anytime budget")
	emotionModel := fs.String("emotion-model", "", "hdc emotion classifier for /stream per-track emotion summaries (train -dataset emotion -model ...)")
	minTrackScore := fs.Float64("min-track-score", 0, "drop /stream detections scoring below this before tracking")
	tenantDir := fs.String("tenants", "", "multi-tenant model store directory ('mem' keeps the store in memory; empty disables multi-tenancy)")
	tenantBudgetMB := fs.Int("tenant-budget-mb", 256, "byte budget (MiB) for materialized tenant models; least recently used demote to compact blobs")
	tenantRetain := fs.Int("tenant-retain", 4, "max versions kept per tenant")
	tenantBatch := fs.Int("tenant-batch", 16, "feedback samples that trigger a per-tenant refinement round")
	of := obscli.Register(fs)
	fs.Parse(args)

	p, err := hdface.LoadSnapshotFile(*snapPath)
	if err != nil {
		return err
	}
	if *workers > 0 {
		p.SetWorkers(*workers)
	}
	cfg := p.Config()
	of.Activate(map[string]string{
		"cmd": "serve", "mode": cfg.Mode.String(),
		"d": strconv.Itoa(cfg.D), "seed": strconv.FormatUint(cfg.Seed, 10),
	})

	reg, err := registry.Open(*regDir, *retain)
	if err != nil {
		return err
	}
	if rcfg, ok := reg.Config(); ok {
		if err := registry.Compatible(rcfg, cfg); err != nil {
			return fmt.Errorf("registry %s serves a different pipeline: %w", *regDir, err)
		}
	}
	var trainer *online.Trainer
	if *onlineOn || *deltaOnly {
		trainer, err = online.New(online.Config{
			Registry:  reg,
			Pipe:      cfg,
			BatchSize: *onlineBatch,
			Replica:   *replicaID,
			DeltaOnly: *deltaOnly,
			Opts:      cfg.Train,
		})
		if err != nil {
			return err
		}
		defer trainer.Close()
	}

	var tenants *tenant.Store
	if *tenantDir != "" {
		dir := *tenantDir
		if dir == "mem" {
			dir = ""
		}
		tenants, err = tenant.Open(tenant.Config{
			Dir:           dir,
			BudgetBytes:   int64(*tenantBudgetMB) << 20,
			Retain:        *tenantRetain,
			FeedbackBatch: *tenantBatch,
			TrainOpts:     cfg.Train,
		})
		if err != nil {
			return err
		}
		if bc, ok := tenants.BaseConfig(); ok {
			if err := registry.Compatible(bc, cfg); err != nil {
				return fmt.Errorf("tenant store %s serves a different pipeline: %w", *tenantDir, err)
			}
		}
	}

	var emotion *hdc.Model
	if *emotionModel != "" {
		f, err := os.Open(*emotionModel)
		if err != nil {
			return err
		}
		emotion, err = hdc.Load(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("emotion model %s: %w", *emotionModel, err)
		}
	}

	s, err := serve.New(serve.Config{
		Pipeline:      p,
		Registry:      reg,
		Online:        trainer,
		MaxBatch:      *maxBatch,
		MaxQueue:      *maxQueue,
		FlushInterval: *flush,
		MaxDeadline:   *deadline,
		DetectParams:  detect.Params{Win: *win, Stride: *stride},
		SLOTarget:     *sloTarget,
		SLOObjective:  *sloObjective,
		SLOWindow:     *sloWindow,
		FrameDeadline: *frameDeadline,
		MinTrackScore: *minTrackScore,
		Emotion:       emotion,
		Tenants:       tenants,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	trained := "untrained"
	if live := s.Registry().Live(); live != nil {
		trained = fmt.Sprintf("trained (live model v%d)", live.ID)
	}
	fmt.Printf("serving %s %s pipeline (D=%d) on http://%s\n",
		trained, cfg.Mode, cfg.D, ln.Addr())
	if tenants != nil {
		st := tenants.Stats()
		fmt.Printf("multi-tenancy on: %d tenant(s), %d version(s) resident\n", st.Tenants, st.Versions)
	}

	srv := &http.Server{Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		s.Close()
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting for drain
	fmt.Println("signal received; draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
	}
	// With every HTTP handler drained, stop the dispatcher: queued jobs are
	// answered, then the inference loop exits.
	s.Close()
	<-errCh // Serve has returned ErrServerClosed
	fmt.Println("drained; bye")
	return of.Finish()
}

// cmdModels inspects and mutates a model registry directory without a
// running daemon: list versions, promote one, or roll back.
func cmdModels(args []string) error {
	fs := flag.NewFlagSet("models", flag.ExitOnError)
	regDir := fs.String("registry", "", "model registry directory (required)")
	promote := fs.Uint64("promote", 0, "promote this version to live")
	rollback := fs.Bool("rollback", false, "roll back to the previously live version")
	retain := fs.Int("retain", 0, "retention bound applied while open (<=0 keeps all)")
	migrate := fs.Bool("migrate-v2", false, "rewrite v1 snapshot files to the compact seeds-only v2 format in place (run offline — no daemon on the directory)")
	fs.Parse(args)
	if *regDir == "" {
		return fmt.Errorf("models: -registry is required")
	}
	if *promote != 0 && *rollback {
		return fmt.Errorf("models: -promote and -rollback are mutually exclusive")
	}
	if *migrate {
		migrated, skipped, err := registry.MigrateV2(*regDir)
		if err != nil {
			return err
		}
		fmt.Printf("migrated %d version(s) to compact v2 (%d already compact)\n", migrated, skipped)
	}
	reg, err := registry.Open(*regDir, *retain)
	if err != nil {
		return err
	}
	switch {
	case *promote != 0:
		if err := reg.Promote(*promote); err != nil {
			return err
		}
		fmt.Printf("promoted v%d\n", *promote)
	case *rollback:
		id, err := reg.Rollback()
		if err != nil {
			return err
		}
		fmt.Printf("rolled back; live is v%d\n", id)
	}
	infos := reg.List()
	if len(infos) == 0 {
		fmt.Println("registry is empty")
		return nil
	}
	for _, in := range infos {
		marker := " "
		if in.Live {
			marker = "*"
		}
		fmt.Printf("%s v%d\n", marker, in.ID)
	}
	return nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: hdface <train|eval|detect|scene|features|serve|stream|route|top|models> [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "scene":
		err = cmdScene(os.Args[2:])
	case "features":
		err = cmdFeatures(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "stream":
		err = cmdStream(os.Args[2:])
	case "route":
		err = cmdRoute(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "models":
		err = cmdModels(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fatal(err)
	}
}
