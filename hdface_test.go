package hdface_test

import (
	"testing"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
)

// tinyFaceSet renders a small binary face/no-face problem at 32x32.
func tinyFaceSet(n int, seed uint64) (imgs []*hdface.Image, labels []int) {
	r := hv.NewRNG(seed)
	for i := 0; i < n; i++ {
		if i%2 == 1 {
			imgs = append(imgs, dataset.RenderFace(32, 32, dataset.Emotion(r.Intn(7)), r))
			labels = append(labels, 1)
		} else {
			imgs = append(imgs, dataset.RenderNonFace(32, 32, r))
			labels = append(labels, 0)
		}
	}
	return
}

func TestConfigDefaults(t *testing.T) {
	p := hdface.New(hdface.Config{})
	cfg := p.Config()
	if cfg.D != 4096 || cfg.Workers < 1 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestModeString(t *testing.T) {
	if hdface.ModeStochHOG.String() != "HDFace+HoG+Learn" {
		t.Fatal("stoch mode name")
	}
	if hdface.ModeOrigHOG.String() != "HDFace+Learn" {
		t.Fatal("orig mode name")
	}
	if hdface.Mode(9).String() != "unknown" {
		t.Fatal("unknown mode name")
	}
}

func TestFitPredictStochHOG(t *testing.T) {
	imgs, labels := tinyFaceSet(40, 1)
	p := hdface.New(hdface.Config{D: 2048, Mode: hdface.ModeStochHOG, Seed: 2})
	if err := p.Fit(imgs, labels, 2); err != nil {
		t.Fatal(err)
	}
	if acc := p.Evaluate(imgs, labels); acc < 0.8 {
		t.Fatalf("train accuracy %v", acc)
	}
	testImgs, testLabels := tinyFaceSet(20, 99)
	if acc := p.Evaluate(testImgs, testLabels); acc < 0.7 {
		t.Fatalf("test accuracy %v", acc)
	}
}

func TestFitPredictOrigHOG(t *testing.T) {
	imgs, labels := tinyFaceSet(40, 3)
	p := hdface.New(hdface.Config{D: 2048, Mode: hdface.ModeOrigHOG, Seed: 4})
	if err := p.Fit(imgs, labels, 2); err != nil {
		t.Fatal(err)
	}
	if acc := p.Evaluate(imgs, labels); acc < 0.85 {
		t.Fatalf("train accuracy %v", acc)
	}
	testImgs, testLabels := tinyFaceSet(20, 98)
	if acc := p.Evaluate(testImgs, testLabels); acc < 0.7 {
		t.Fatalf("test accuracy %v", acc)
	}
}

func TestFitErrors(t *testing.T) {
	p := hdface.New(hdface.Config{D: 256})
	if err := p.Fit(nil, nil, 2); err == nil {
		t.Fatal("accepted empty training set")
	}
	imgs, _ := tinyFaceSet(4, 5)
	if err := p.Fit(imgs, []int{0}, 2); err == nil {
		t.Fatal("accepted mismatched labels")
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	p := hdface.New(hdface.Config{D: 256})
	img := imgproc.NewImage(16, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.Predict(img)
}

func TestWorkingSizeResizes(t *testing.T) {
	// Images of mixed sizes must be unified by WorkingSize.
	r := hv.NewRNG(6)
	imgs := []*hdface.Image{
		dataset.RenderFace(64, 64, dataset.Happy, r),
		dataset.RenderNonFace(48, 48, r),
		dataset.RenderFace(32, 32, dataset.Sad, r),
		dataset.RenderNonFace(64, 64, r),
	}
	labels := []int{1, 0, 1, 0}
	p := hdface.New(hdface.Config{D: 512, WorkingSize: 16, Seed: 7})
	if err := p.Fit(imgs, labels, 2); err != nil {
		t.Fatal(err)
	}
	// Must also accept a differently sized query.
	p.Predict(dataset.RenderFace(128, 128, dataset.Happy, r))
}

func TestScores(t *testing.T) {
	imgs, labels := tinyFaceSet(12, 8)
	p := hdface.New(hdface.Config{D: 512, Seed: 9})
	if err := p.Fit(imgs, labels, 2); err != nil {
		t.Fatal(err)
	}
	s := p.Scores(imgs[0])
	if len(s) != 2 {
		t.Fatalf("scores length %d", len(s))
	}
}

func TestFeaturesDeterministicAcrossRuns(t *testing.T) {
	imgs, labels := tinyFaceSet(8, 10)
	run := func() []int {
		p := hdface.New(hdface.Config{D: 512, Seed: 11})
		if err := p.Fit(imgs, labels, 2); err != nil {
			t.Fatal(err)
		}
		var preds []int
		for _, img := range imgs {
			preds = append(preds, p.Model().Predict(p.Feature(img)))
		}
		return preds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs across identical runs", i)
		}
	}
}

func TestWorkCountersAccumulateAndReset(t *testing.T) {
	imgs, labels := tinyFaceSet(6, 12)
	p := hdface.New(hdface.Config{D: 512, Seed: 13})
	if err := p.Fit(imgs, labels, 2); err != nil {
		t.Fatal(err)
	}
	w := p.Work()
	if (&w.Stoch).TotalWords() == 0 || w.Pixels == 0 {
		t.Fatalf("stoch work not recorded: %+v", w)
	}
	p.ResetWork()
	if func() bool { ws := p.Work(); return (&ws.Stoch).TotalWords() != 0 }() || p.Work().Pixels != 0 {
		t.Fatal("ResetWork incomplete")
	}

	po := hdface.New(hdface.Config{D: 512, Mode: hdface.ModeOrigHOG, Seed: 14})
	if err := po.Fit(imgs, labels, 2); err != nil {
		t.Fatal(err)
	}
	wo := po.Work()
	if wo.HOG.Total() == 0 || wo.EncMACs == 0 {
		t.Fatalf("orig-mode work not recorded: %+v", wo)
	}
}

func TestFitFeaturesDirect(t *testing.T) {
	r := hv.NewRNG(15)
	var feats []*hv.Vector
	var labels []int
	protoA, protoB := hv.NewRand(r, 512), hv.NewRand(r, 512)
	for i := 0; i < 20; i++ {
		v := protoA.Clone()
		l := 0
		if i%2 == 1 {
			v = protoB.Clone()
			l = 1
		}
		v.Xor(v, hv.NewRandBiased(r, 512, 0.1))
		feats = append(feats, v)
		labels = append(labels, l)
	}
	p := hdface.New(hdface.Config{D: 512, Seed: 16})
	if err := p.FitFeatures(feats, labels, 2); err != nil {
		t.Fatal(err)
	}
	if p.Model().Accuracy(feats, labels) < 0.95 {
		t.Fatal("FitFeatures failed on trivial clusters")
	}
}

// TestAllModeNames pins the mode set to the two front-ends Fig. 4 compares:
// every other number, including the 2 and 3 of the removed HAAR and
// convolution modes, names no mode.
func TestAllModeNames(t *testing.T) {
	for m := hdface.Mode(0); m < 8; m++ {
		named := m.String() != "unknown"
		if named != (m == hdface.ModeStochHOG || m == hdface.ModeOrigHOG) {
			t.Fatalf("Mode(%d) named %q", int(m), m.String())
		}
	}
}

// TestFeaturePureFunctionOfImage pins the serving determinism contract:
// Feature is a pure function of (Config, image). The same image must map to
// the same hypervector whether it is extracted alone, inside any batch at
// any worker count, or after an arbitrary extraction history.
func TestFeaturePureFunctionOfImage(t *testing.T) {
	imgs, _ := tinyFaceSet(12, 7)
	// Without a working size every image keeps its own geometry. Later
	// images with more cells than the first must not leave batch workers
	// creating positional IDs concurrently (run with -race).
	mixed := []*hdface.Image{imgs[0].Resize(8, 8), imgs[1].Resize(40, 40), imgs[2].Resize(48, 40), imgs[3]}
	for _, tc := range []struct {
		mode hdface.Mode
		size int
		imgs []*hdface.Image
	}{
		{hdface.ModeStochHOG, 32, imgs},
		{hdface.ModeOrigHOG, 32, imgs},
		{hdface.ModeStochHOG, 0, mixed},
	} {
		mode, imgs := tc.mode, tc.imgs
		cfg := hdface.Config{D: 1024, Mode: mode, Seed: 5, WorkingSize: tc.size}
		// Reference: a fresh pipeline extracting each image in isolation.
		want := make([]*hv.Vector, len(imgs))
		for i, img := range imgs {
			want[i] = hdface.New(cfg).Feature(img)
		}
		// One pipeline extracting them in sequence must agree (no history
		// dependence).
		p := hdface.New(cfg)
		for i, img := range imgs {
			if got := p.Feature(img); !got.Equal(want[i]) {
				t.Fatalf("%v size=%d: sequential Feature(%d) differs from isolated", mode, tc.size, i)
			}
		}
		// Batch extraction at several worker counts must agree too, and be
		// independent of batch composition (reversed order).
		for _, workers := range []int{1, 3} {
			cw := cfg
			cw.Workers = workers
			got := hdface.New(cw).Features(imgs)
			for i := range imgs {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%v size=%d workers=%d: Features[%d] differs from isolated", mode, tc.size, workers, i)
				}
			}
			rev := make([]*hdface.Image, len(imgs))
			for i := range imgs {
				rev[i] = imgs[len(imgs)-1-i]
			}
			gotRev := hdface.New(cw).Features(rev)
			for i := range imgs {
				if !gotRev[len(imgs)-1-i].Equal(want[i]) {
					t.Fatalf("%v size=%d workers=%d: reversed batch changed Features[%d]", mode, tc.size, workers, i)
				}
			}
		}
	}
}
