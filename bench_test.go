// Benchmarks mapping one-to-one onto the paper's tables and figures (see
// DESIGN.md's experiment index) plus the ablation benches it calls out.
// Absolute wall times here are Go-on-host numbers; the modelled embedded
// platform numbers come from cmd/hdface-bench -exp fig7.
package hdface_test

import (
	"context"
	"io"
	"runtime"
	"testing"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/detect"
	"hdface/internal/experiments"
	"hdface/internal/hdhog"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/noise"
	"hdface/internal/stoch"
	"hdface/internal/track"
)

// benchImages renders a small balanced face/no-face batch from seed.
func benchImages(n, size int, seed uint64) ([]*imgproc.Image, []int) {
	r := hv.NewRNG(seed)
	imgs := make([]*imgproc.Image, n)
	labels := make([]int, n)
	for i := range imgs {
		if i%2 == 0 {
			imgs[i] = dataset.RenderFace(size, size, dataset.Emotion(r.Intn(7)), r)
			labels[i] = 1
		} else {
			imgs[i] = dataset.RenderNonFace(size, size, r)
		}
	}
	return imgs, labels
}

// BenchmarkFig2StochasticOps measures the three primitives Figure 2 sweeps
// at the paper's D = 4k.
func BenchmarkFig2StochasticOps(b *testing.B) {
	c := stoch.NewCodec(4096, 1)
	va, vb := c.Construct(0.4), c.Construct(-0.6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Construct(0.3)
		c.WeightedAvg(0.5, va, vb)
		c.Mul(va, vb)
	}
}

// BenchmarkTable1DatasetGen measures rendering one Table 1 style sample.
func BenchmarkTable1DatasetGen(b *testing.B) {
	r := hv.NewRNG(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dataset.RenderFace(48, 48, dataset.Happy, r)
	}
}

// BenchmarkFig4TrainStoch measures the stochastic-HOG pipeline's Fit on a
// small face/no-face batch — the HDFace column of Figure 4.
func BenchmarkFig4TrainStoch(b *testing.B) {
	imgs, labels := benchImages(8, 32, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := hdface.New(hdface.Config{D: 2048, Seed: 3, Workers: 1})
		if err := p.Fit(imgs, labels, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4TrainOrig measures the original-space configuration (HOG +
// nonlinear encoder) — the comparison column of Figure 4.
func BenchmarkFig4TrainOrig(b *testing.B) {
	imgs, labels := benchImages(8, 32, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := hdface.New(hdface.Config{D: 2048, Mode: hdface.ModeOrigHOG, Seed: 3, Workers: 1})
		if err := p.Fit(imgs, labels, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5aFeatureByD measures hyperspace feature extraction across
// the Figure 5a dimensionality sweep.
func BenchmarkFig5aFeatureByD(b *testing.B) {
	imgs, _ := benchImages(1, 32, 1)
	for _, d := range []int{1024, 4096, 10240} {
		b.Run(itoa(d), func(b *testing.B) {
			e := hdhog.New(stoch.NewCodec(d, 4), hdhog.Params{Stride: 1})
			e.WarmIDs(32, 32)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Feature(imgs[0])
			}
		})
	}
}

// BenchmarkFig5bDNNEpoch prices one DNN training epoch per hidden size via
// the real trainer (the Figure 5b x-axis).
func BenchmarkFig5bDNNEpoch(b *testing.B) {
	o := experiments.Options{Quick: true, Seed: 5, EmoTrain: 14, EmoTest: 7,
		FaceTrain: 4, FaceTest: 2, DNNEpochs: 1}
	for _, h := range []int{64, 256} {
		b.Run(itoa(h), func(b *testing.B) {
			oo := o
			oo.DNNHidden = []int{h}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig5bData(oo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6Window measures classifying one sliding window — the unit
// of Figure 6's detection sweep.
func BenchmarkFig6Window(b *testing.B) {
	imgs, labels := benchImages(8, 48, 1)
	p := hdface.New(hdface.Config{D: 2048, Seed: 6, Workers: 1})
	if err := p.Fit(imgs, labels, 2); err != nil {
		b.Fatal(err)
	}
	window := imgs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(window)
	}
}

// BenchmarkFig7Model prices the Figure 7 hardware traces (the analytic
// model itself, not the workload).
func BenchmarkFig7Model(b *testing.B) {
	o := experiments.Options{Quick: true, Seed: 7, EmoTrain: 14, EmoTest: 7,
		FaceTrain: 4, FaceTest: 2, D: 1024, DNNEpochs: 1, Trials: 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7Data(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2NoiseSweep measures one fault-injection evaluation: flip
// bits in features and model, then re-evaluate (the Table 2 inner loop).
func BenchmarkTable2NoiseSweep(b *testing.B) {
	imgs, labels := benchImages(8, 32, 1)
	p := hdface.New(hdface.Config{D: 2048, Seed: 8, Workers: 1})
	if err := p.Fit(imgs, labels, 2); err != nil {
		b.Fatal(err)
	}
	feats := p.Features(imgs)
	inj := noise.New(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clones := make([]*hv.Vector, len(feats))
		for j, f := range feats {
			clones[j] = f.Clone()
		}
		inj.FlipVectors(clones, 0.04)
		p.Model().Accuracy(clones, labels)
	}
}

// BenchmarkAblationStride compares the paper's 3x3-cell gradient sampling
// against per-pixel gradients (DESIGN.md ablation).
func BenchmarkAblationStride(b *testing.B) {
	imgs, _ := benchImages(1, 32, 1)
	for _, stride := range []int{1, 3} {
		b.Run(itoa(stride), func(b *testing.B) {
			e := hdhog.New(stoch.NewCodec(2048, 10), hdhog.Params{Stride: stride})
			e.WarmIDs(32, 32)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Feature(imgs[0])
			}
		})
	}
}

// BenchmarkAblationBundle compares value-weighted ID bundling against pure
// bind-and-bundle feature construction (DESIGN.md ablation).
func BenchmarkAblationBundle(b *testing.B) {
	imgs, _ := benchImages(1, 32, 1)
	for _, bind := range []bool{false, true} {
		name := "weighted"
		if bind {
			name = "bind"
		}
		b.Run(name, func(b *testing.B) {
			e := hdhog.New(stoch.NewCodec(2048, 11), hdhog.Params{Stride: 3, BindBundle: bind})
			e.WarmIDs(32, 32)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Feature(imgs[0])
			}
		})
	}
}

// BenchmarkMotivationHOGShare runs the Section 2 motivation experiment.
func BenchmarkMotivationHOGShare(b *testing.B) {
	o := experiments.Options{Quick: true, Seed: 12, EmoTrain: 14, EmoTest: 7,
		FaceTrain: 4, FaceTest: 2, D: 1024, DNNEpochs: 1, Trials: 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Motivation(io.Discard, o); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkDetectRun measures a multi-scale sweep with a cheap scorer,
// isolating the pyramid/NMS driver overhead.
func BenchmarkDetectRun(b *testing.B) {
	imgs, _ := benchImages(1, 96, 1)
	scorer := func(win *imgproc.Image) (bool, float64) {
		m := win.Mean()
		return m > 128, m
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := detect.Run(imgs[0], scorer, detect.Params{Win: 48, Stride: 24}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectSweep prices a full HDFace detection sweep on a 512x512
// scene at three pyramid scales — the workload the cell-grid engine
// exists for. "serial" is the legacy path (crop + full re-extraction per
// window through Pipeline.Feature); "cellgrid" reuses each level's cell
// hypervectors across windows on one worker; "cellgrid-wN" adds the
// worker pool.
func BenchmarkDetectSweep(b *testing.B) {
	imgs, labels := benchImages(16, 48, 1)
	p := hdface.New(hdface.Config{D: 2048, Seed: 21, Workers: 1, Stride: 3})
	if err := p.Fit(imgs, labels, 2); err != nil {
		b.Fatal(err)
	}
	scene := dataset.GenerateScene(512, 512, 48, 3, 22)
	params := detect.Params{Win: 48, Stride: 24, Scales: []float64{1, 1.5, 2}, NMSIoU: 0.3}
	model := p.Model()

	b.Run("serial", func(b *testing.B) {
		legacy := func(win *imgproc.Image) (bool, float64) {
			sc := model.Scores(p.Feature(win))
			return sc[1] > sc[0], sc[1] - sc[0]
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := detect.Run(scene.Image, legacy, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	workerCounts := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		name := "cellgrid"
		if workers > 1 {
			name = "cellgrid-w" + itoa(workers)
		}
		b.Run(name, func(b *testing.B) {
			scorer, err := p.DetectScorer(nil, 48)
			if err != nil {
				b.Fatal(err)
			}
			pp := params
			pp.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := detect.Sweep(context.Background(), scene.Image, scorer, pp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	if runtime.NumCPU() < 4 {
		b.Log("host has fewer than 4 CPUs: the multi-worker sub-benchmark exercises the pool without wall-clock speedup")
	}
}

// BenchmarkFusedScoreVsCellGrid carries the fused kernel's two performance
// contracts on a 256x256 scene at D=1024 and scales {1, 1.5, 2}, 133
// windows at stride 24. "cellgrid-sweep" times a whole one-worker
// cell-grid sweep, pyramid and level grids included; "fused-score"
// prepares every level untimed and times only the fused window scoring.
// Each reports windows/op, windows/s and allocs/window, and
// scripts/check.sh requires fused windows/s at least 3x the cellgrid
// sweep's and at most 8 fused allocs/window.
func BenchmarkFusedScoreVsCellGrid(b *testing.B) {
	const size, d, win = 256, 1024, 48
	imgs, labels := benchImages(16, win, 7^0xbe7c)
	p := hdface.New(hdface.Config{D: d, Seed: 7, Workers: 1, Stride: 3})
	if err := p.Fit(imgs, labels, 2); err != nil {
		b.Fatal(err)
	}
	scene := dataset.GenerateScene(size, size, win, 3, 7^0x5ce2)
	params := detect.Params{Win: win, Stride: 24, Scales: []float64{1, 1.5, 2}, NMSIoU: 0.3, Workers: 1}

	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	report := func(b *testing.B, windows int64, allocs uint64) {
		n := float64(windows) * float64(b.N)
		b.ReportMetric(float64(windows), "windows/op")
		b.ReportMetric(n/b.Elapsed().Seconds(), "windows/s")
		b.ReportMetric(float64(allocs)/n, "allocs/window")
	}

	b.Run("cellgrid-sweep", func(b *testing.B) {
		var windows int64
		before := mallocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scorer, err := p.DetectScorer(nil, win)
			if err != nil {
				b.Fatal(err)
			}
			_, stats, err := detect.Sweep(context.Background(), scene.Image, scorer, params)
			if err != nil {
				b.Fatal(err)
			}
			windows = stats.Windows
		}
		b.StopTimer()
		report(b, windows, mallocs()-before)
	})
	b.Run("fused-score", func(b *testing.B) {
		scorer, err := p.DetectScorer(nil, win)
		if err != nil {
			b.Fatal(err)
		}
		scorer.Fused = true
		type level struct {
			ls     detect.LevelScorer
			nx, ny int
		}
		var levels []level
		for li, s := range params.Scales {
			img := scene.Image
			if s != 1 {
				img = img.Resize(int(size/s), int(size/s))
			}
			ls := scorer.PrepareLevel(img, li, win, 1)
			if ls == nil {
				b.Fatalf("level %d declined preparation", li)
			}
			levels = append(levels, level{ls, (img.W-win)/params.Stride + 1, (img.H-win)/params.Stride + 1})
		}
		var windows int64
		before := mallocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			windows = 0
			for _, l := range levels {
				for idx := 0; idx < l.nx*l.ny; idx++ {
					l.ls.ScoreAt(idx%l.nx*params.Stride, idx/l.nx*params.Stride, idx)
					windows++
				}
			}
		}
		b.StopTimer()
		report(b, windows, mallocs()-before)
		for _, l := range levels {
			l.ls.(detect.LevelCloser).CloseLevel()
		}
	})
}

// BenchmarkTrackerStep measures one tracker frame with four detections.
func BenchmarkTrackerStep(b *testing.B) {
	r := hv.NewRNG(14)
	protos := make([]*hv.Vector, 4)
	for i := range protos {
		protos[i] = hv.NewRand(r, 2048)
	}
	tk := track.New(track.Config{MaxDist: 1e9}, 15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var dets []track.Detection
		for j, p := range protos {
			v := p.Clone()
			v.Xor(v, hv.NewRandBiased(r, 2048, 0.1))
			dets = append(dets, track.Detection{Box: [4]int{j * 60, 0, j*60 + 48, 48}, Feature: v})
		}
		tk.Step(dets)
	}
}
