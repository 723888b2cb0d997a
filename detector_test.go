package hdface_test

import (
	"context"
	"reflect"
	"testing"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/detect"
	"hdface/internal/obs"
)

// Handles to the detection scorer's grid-vs-fallback counters (NewCounter
// is idempotent by name, so these alias the ones detector.go registers).
var (
	gridWindowsCtr = obs.NewCounter("hdface_detect_grid_windows_total", "")
	fullWindowsCtr = obs.NewCounter("hdface_detect_full_extractions_total", "")
)

func trainedDetectPipeline(t *testing.T, d int) *hdface.Pipeline {
	t.Helper()
	imgs, labels := benchImages(12, 48, 1)
	p := hdface.New(hdface.Config{D: d, Seed: 21, Workers: 1, Stride: 3})
	if err := p.Fit(imgs, labels, 2); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDetectScorerValidation(t *testing.T) {
	p := hdface.New(hdface.Config{D: 512, Seed: 1, Workers: 1})
	if _, err := p.DetectScorer(nil, 48); err == nil {
		t.Fatal("untrained pipeline should be rejected")
	}
	imgs, labels := benchImages(12, 32, 1)
	// A 7-class emotion model is not a face/non-face detector.
	for i := range labels {
		labels[i] = i % 3
	}
	if err := p.Fit(imgs, labels, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := p.DetectScorer(nil, 48); err == nil {
		t.Fatal("non-binary model should be rejected")
	}
	p2 := trainedDetectPipeline(t, 512)
	if _, err := p2.DetectScorer(nil, 0); err == nil {
		t.Fatal("non-positive window should be rejected")
	}
	if _, err := p2.DetectScorer(nil, 48); err != nil {
		t.Fatal(err)
	}
}

// TestFaceScorerSweepDeterministicAcrossWorkers is the tentpole's
// correctness contract: the parallel cell-grid sweep must produce
// byte-identical boxes for any worker count, including under the race
// detector (run this package with -race to exercise the 8-worker pool).
func TestFaceScorerSweepDeterministicAcrossWorkers(t *testing.T) {
	p := trainedDetectPipeline(t, 1024)
	scene := dataset.GenerateScene(128, 128, 48, 1, 33)
	params := detect.Params{Win: 48, Stride: 24, Scales: []float64{1, 2}, NMSIoU: 0.3}

	obs.Enable()
	defer obs.Disable()
	var ref []detect.Box
	for i, workers := range []int{1, 2, 8} {
		grid0, full0 := gridWindowsCtr.Value(), fullWindowsCtr.Value()
		scorer, err := p.DetectScorer(nil, 48)
		if err != nil {
			t.Fatal(err)
		}
		pp := params
		pp.Workers = workers
		boxes, stats, err := detect.Sweep(context.Background(), scene.Image, scorer, pp)
		if err != nil {
			t.Fatal(err)
		}
		if stats.PreparedLevels != stats.Levels || stats.FallbackWindows != 0 {
			t.Fatalf("StochHOG levels should all be prepared: %+v", stats)
		}
		if grid, full := gridWindowsCtr.Value()-grid0, fullWindowsCtr.Value()-full0; grid != stats.Windows || full != 0 {
			t.Fatalf("48px windows on 8px cells should all ride the grid: grid=%d full=%d of %d", grid, full, stats.Windows)
		}
		if stats.Workers != workers {
			t.Fatalf("sweep clamped to %d workers, want %d", stats.Workers, workers)
		}
		if i == 0 {
			ref = boxes
			continue
		}
		if !reflect.DeepEqual(boxes, ref) {
			t.Fatalf("%d workers changed detections:\n got %+v\nwant %+v", workers, boxes, ref)
		}
	}
}

// TestFaceScorerFallbackWindows drives the off-lattice geometry: a window
// size that does not tile whole 8px cells cannot use the grid, so every
// window takes the full-extraction path — still deterministic in parallel.
func TestFaceScorerFallbackWindows(t *testing.T) {
	p := trainedDetectPipeline(t, 512)
	scene := dataset.GenerateScene(84, 84, 48, 1, 34)
	params := detect.Params{Win: 36, Stride: 24, Scales: []float64{1}, NMSIoU: 0.3}

	obs.Enable()
	defer obs.Disable()
	var ref []detect.Box
	for i, workers := range []int{1, 4} {
		grid0, full0 := gridWindowsCtr.Value(), fullWindowsCtr.Value()
		scorer, err := p.DetectScorer(nil, 36)
		if err != nil {
			t.Fatal(err)
		}
		pp := params
		pp.Workers = workers
		boxes, stats, err := detect.Sweep(context.Background(), scene.Image, scorer, pp)
		if err != nil {
			t.Fatal(err)
		}
		if grid, full := gridWindowsCtr.Value()-grid0, fullWindowsCtr.Value()-full0; grid != 0 || full != stats.Windows {
			t.Fatalf("36px windows should all take full extraction: grid=%d full=%d of %d", grid, full, stats.Windows)
		}
		if i == 0 {
			ref = boxes
			continue
		}
		if !reflect.DeepEqual(boxes, ref) {
			t.Fatalf("fallback path not deterministic across workers:\n got %+v\nwant %+v", boxes, ref)
		}
	}
}
