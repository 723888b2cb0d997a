package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/detect"
	"hdface/internal/hdc"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
)

// Fixture geometry. The served detector is a D-dimensional stride-3
// hyperspace-HOG pipeline at a 48-pixel working size; win is also the
// detection window and the crop size of /predict requests.
const (
	win            = 48
	fixtureSeed    = 7 // the model is the same for every traffic seed
	trainSamples   = 320
	miningRounds   = 3
	miningCanvases = 12
)

// fixture is the trained model pair every workload serves: the face
// detector snapshot and the 7-class emotion model /stream bundles against.
type fixture struct {
	D        int           `json:"d"`
	Snapshot string        `json:"-"`      // hdface-model/v1 snapshot path
	Emotion  string        `json:"-"`      // hdc model path
	SHA256   string        `json:"sha256"` // of the snapshot bytes; equal seeds give equal bytes
	Train    time.Duration `json:"train_ns"`
}

func (fx *fixture) setDir(dir string) {
	fx.Snapshot = filepath.Join(dir, "face.hdfs")
	fx.Emotion = filepath.Join(dir, "emotion.hdc")
}

// cachedFixture returns the fixture of dimensionality d that this very
// binary trains, from cache when an earlier run left it there. Training
// takes seconds and depends on nothing but the code, which the binary's
// own hash pins, so a changed repository trains afresh.
func cachedFixture(cache string, d, workers int) (*fixture, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(cache, fmt.Sprintf("d%d-%x", d, sum[:8]))
	if b, err := os.ReadFile(filepath.Join(dir, "fixture.json")); err == nil {
		var fx fixture
		if err := json.Unmarshal(b, &fx); err == nil {
			fx.setDir(dir)
			return &fx, nil
		}
	}
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cache, "train-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	fx, err := trainFixture(tmp, d, workers)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(fx)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "fixture.json"), b, 0o644); err != nil {
		return nil, err
	}
	os.RemoveAll(dir) // a partial entry without fixture.json
	if err := os.Rename(tmp, dir); err != nil {
		return nil, fmt.Errorf("fixture cache: %w", err)
	}
	fx.setDir(dir)
	return fx, nil
}

// trainFixture trains the fixture in process and writes it under dir. It
// follows the stream benchmark recipe: positives are faces blended over
// clutter with translation jitter, negatives are window crops of clutter
// canvases, and hard-negative rounds refit on every window a face-free
// canvas still fires on. The mining sweeps use a cell-aligned stride. Three
// rounds rather than the stream benchmark's one keep false positives, and
// with them the per-frame cost of /stream, from varying much with the
// clutter a traffic seed draws.
func trainFixture(dir string, d, workers int) (*fixture, error) {
	start := time.Now()
	r := hv.NewRNG(fixtureSeed ^ 0x57be)
	const cw, ch = 192, 144
	var imgs []*imgproc.Image
	var labels []int
	for i := 0; i < trainSamples; i++ {
		if i%2 == 0 {
			face := dataset.RenderFace(win, win, dataset.Emotion(r.Intn(int(dataset.NumEmotions))), r)
			canvas := dataset.RenderNonFace(2*win, 2*win, r)
			canvas.Blend(face, win/2+r.Intn(9)-4, win/2+r.Intn(9)-4, 1)
			imgs = append(imgs, canvas.Crop(win/2, win/2, win, win))
			labels = append(labels, 1)
		} else {
			bg := dataset.RenderNonFace(cw, ch, r)
			imgs = append(imgs, bg.Crop(r.Intn(cw-win), r.Intn(ch-win), win, win))
			labels = append(labels, 0)
		}
	}
	p := hdface.New(hdface.Config{D: d, Seed: fixtureSeed, Workers: workers, WorkingSize: win, Stride: 3})
	if err := p.Fit(imgs, labels, 2); err != nil {
		return nil, fmt.Errorf("fixture: fit: %w", err)
	}
	mine := detect.Params{Win: win, Stride: 8, Scales: []float64{1}, NMSIoU: 0.05, Workers: workers}
	for round := 0; round < miningRounds; round++ {
		scorer, err := p.DetectScorer(nil, win)
		if err != nil {
			return nil, fmt.Errorf("fixture: %w", err)
		}
		for i := 0; i < miningCanvases; i++ {
			bg := dataset.RenderNonFace(cw, ch, r)
			boxes, _, err := detect.Sweep(context.Background(), bg, scorer, mine)
			if err != nil {
				return nil, fmt.Errorf("fixture: mining: %w", err)
			}
			for _, b := range boxes {
				imgs = append(imgs, bg.Crop(b.X0, b.Y0, b.X1-b.X0, b.Y1-b.Y0))
				labels = append(labels, 0)
			}
		}
		if err := p.Fit(imgs, labels, 2); err != nil {
			return nil, fmt.Errorf("fixture: refit: %w", err)
		}
	}

	var emoFeats []*hv.Vector
	var emoLabels []int
	for e := 0; e < int(dataset.NumEmotions); e++ {
		for i := 0; i < 4; i++ {
			emoFeats = append(emoFeats, p.Feature(dataset.RenderFace(win, win, dataset.Emotion(e), r)))
			emoLabels = append(emoLabels, e)
		}
	}
	emotion, err := hdc.Train(emoFeats, emoLabels, int(dataset.NumEmotions), hdc.TrainOpts{Epochs: 5, Seed: fixtureSeed})
	if err != nil {
		return nil, fmt.Errorf("fixture: emotion model: %w", err)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx := &fixture{D: d}
	fx.setDir(dir)
	if err := p.SaveSnapshotFile(fx.Snapshot); err != nil {
		return nil, err
	}
	f, err := os.Create(fx.Emotion)
	if err != nil {
		return nil, err
	}
	if err := emotion.Save(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	blob, err := os.ReadFile(fx.Snapshot)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(blob)
	fx.SHA256 = hex.EncodeToString(sum[:])
	fx.Train = time.Since(start)
	return fx, nil
}
