package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdface"
	"hdface/internal/obs"
)

func TestSpecFor(t *testing.T) {
	for _, name := range []string{"emotion", "FACE1", "Face2"} {
		if _, err := specFor(name); err != nil {
			t.Fatalf("specFor(%q): %v", name, err)
		}
	}
	if _, err := specFor("bogus"); err == nil {
		t.Fatal("accepted unknown dataset")
	}
}

func TestBuildPipeline(t *testing.T) {
	if _, err := buildPipeline(512, 24, 1, "stoch", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := buildPipeline(512, 24, 1, "orig", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := buildPipeline(512, 24, 1, "", 1); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"bogus", "haar", "conv"} {
		if _, err := buildPipeline(512, 24, 1, mode, 1); err == nil {
			t.Fatalf("accepted unknown mode %q", mode)
		}
	}
	// Workers <= 0 is a user error now (the flag defaults to NumCPU); the
	// old silent fallback hid typos like -workers 0.
	if _, err := buildPipeline(512, 24, 0, "stoch", 1); err == nil {
		t.Fatal("workers=0 should be rejected")
	}
	if _, err := buildPipeline(512, 24, -2, "stoch", 1); err == nil {
		t.Fatal("negative workers should be rejected")
	}
	p, err := buildPipeline(512, 24, 3, "stoch", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Config().Workers != 3 {
		t.Fatalf("workers = %d, want 3", p.Config().Workers)
	}
}

// TestTrainEvalDetectRoundTrip drives the full CLI workflow with tiny
// parameters: train a face model, evaluate it, render a scene, detect.
func TestTrainEvalDetectRoundTrip(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "face.hdc")
	scene := filepath.Join(dir, "scene.pgm")
	overlay := filepath.Join(dir, "overlay.pgm")

	if err := cmdTrain([]string{
		"-dataset", "face2", "-d", "512", "-n", "12", "-test", "6",
		"-size", "24", "-model", model}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatal("model file missing")
	}
	if err := cmdEval([]string{
		"-dataset", "face2", "-d", "512", "-n", "6", "-size", "24",
		"-model", model}); err != nil {
		t.Fatalf("eval: %v", err)
	}
	if err := cmdScene([]string{
		"-out", scene, "-w", "96", "-h", "72", "-faces", "1"}); err != nil {
		t.Fatalf("scene: %v", err)
	}
	if err := cmdDetect([]string{
		"-scene", scene, "-model", model, "-out", overlay,
		"-d", "512", "-win", "48", "-stride", "48", "-size", "24"}); err != nil {
		t.Fatalf("detect: %v", err)
	}
	if _, err := os.Stat(overlay); err != nil {
		t.Fatal("overlay missing")
	}
}

func TestDetectRejectsMulticlassModel(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "emo.hdc")
	if err := cmdTrain([]string{
		"-dataset", "emotion", "-d", "512", "-n", "14", "-test", "7",
		"-size", "24", "-model", model}); err != nil {
		t.Fatalf("train: %v", err)
	}
	scene := filepath.Join(dir, "scene.pgm")
	if err := cmdScene([]string{"-out", scene, "-w", "48", "-h", "48", "-faces", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDetect([]string{
		"-scene", scene, "-model", model, "-d", "512", "-size", "24",
		"-out", filepath.Join(dir, "o.pgm")}); err == nil {
		t.Fatal("detect accepted a 7-class model")
	}
}

// TestFeatureCacheWorkflow trains once from a feature cache and once from
// the images the cache was extracted from, with the same flags: the two
// model files must be byte-identical.
func TestFeatureCacheWorkflow(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "face2.hvf")
	cached := filepath.Join(dir, "cached.hdc")
	direct := filepath.Join(dir, "direct.hdc")
	if err := cmdFeatures([]string{
		"-dataset", "face2", "-d", "1024", "-n", "8", "-size", "24", "-seed", "7",
		"-out", cache}); err != nil {
		t.Fatalf("features: %v", err)
	}
	if err := cmdTrain([]string{
		"-features", cache, "-k", "2", "-seed", "7", "-model", cached}); err != nil {
		t.Fatalf("train from cache: %v", err)
	}
	if err := cmdTrain([]string{
		"-dataset", "face2", "-d", "1024", "-n", "8", "-test", "2", "-size", "24", "-seed", "7",
		"-model", direct}); err != nil {
		t.Fatalf("train: %v", err)
	}
	a, err := os.ReadFile(cached)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("training from the feature cache and from images gave different model files")
	}
}

// TestTrainReportsMode checks that train's progress line names the mode
// the pipeline was built with.
func TestTrainReportsMode(t *testing.T) {
	model := filepath.Join(t.TempDir(), "orig.hdc")
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = cmdTrain([]string{
		"-dataset", "face2", "-mode", "orig", "-d", "512", "-n", "8", "-test", "2",
		"-size", "24", "-model", model})
	os.Stdout = stdout
	w.Close()
	out, rerr := io.ReadAll(r)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	if want := "D=512, " + hdface.ModeOrigHOG.String() + ")"; !strings.Contains(string(out), want) {
		t.Fatalf("train output %q does not contain %q", out, want)
	}
}

func TestTrainFromCacheValidation(t *testing.T) {
	if err := trainFromCache("/nonexistent.hvf", "/tmp/x.hdc", 0, 1); err == nil {
		t.Fatal("missing cache accepted")
	}
}

// TestEvalStatsJSON drives train + eval with the observability flags on and
// checks that the JSON snapshot round-trips and contains the per-stage
// timings and stochastic-op counters the acceptance criteria name.
func TestEvalStatsJSON(t *testing.T) {
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	dir := t.TempDir()
	model := filepath.Join(dir, "emo.hdc")
	snapPath := filepath.Join(dir, "eval.json")
	if err := cmdTrain([]string{
		"-dataset", "emotion", "-d", "512", "-n", "14", "-test", "7",
		"-size", "24", "-model", model}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := cmdEval([]string{
		"-dataset", "emotion", "-d", "512", "-n", "7", "-size", "24",
		"-model", model, "-workers", "2", "-stats", "-stats-json", snapPath}); err != nil {
		t.Fatalf("eval: %v", err)
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if snap.Schema != obs.Schema {
		t.Fatalf("schema = %q, want %q", snap.Schema, obs.Schema)
	}
	for _, stage := range []string{"extract", "predict"} {
		st, ok := snap.Stages[stage]
		if !ok || st.Count == 0 {
			t.Fatalf("stage %q missing from snapshot: %+v", stage, snap.Stages)
		}
	}
	if snap.Counters[`hdface_stoch_ops_total{op="avg"}`] == 0 {
		t.Fatal("stochastic op counters not recorded")
	}
	if snap.Gauges["hdface_pipeline_workers"] != 2 {
		t.Fatalf("workers gauge = %v, want 2", snap.Gauges["hdface_pipeline_workers"])
	}
	if snap.Meta["cmd"] != "eval" {
		t.Fatalf("meta = %+v", snap.Meta)
	}
}
