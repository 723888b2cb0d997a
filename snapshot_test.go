package hdface_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"io"
	"reflect"
	"strings"
	"testing"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/detect"
	"hdface/internal/hdc"
)

// spliceConfig rewrites the config section of a valid snapshot with the gob
// encoding of cfg, keeping the magic and everything after the config blob —
// how a tampered or corrupted snapshot reaches the validation layer.
func spliceConfig(t *testing.T, snap []byte, cfg hdface.Config) []byte {
	t.Helper()
	const magicLen = 16
	oldLen := binary.LittleEndian.Uint32(snap[magicLen : magicLen+4])
	var cfgBuf bytes.Buffer
	if err := gob.NewEncoder(&cfgBuf).Encode(cfg); err != nil {
		t.Fatal(err)
	}
	out := append([]byte{}, snap[:magicLen]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(cfgBuf.Len()))
	out = append(out, cfgBuf.Bytes()...)
	return append(out, snap[magicLen+4+int(oldLen):]...)
}

// snapshotRoundTrip saves p and loads it back through the wire format.
func snapshotRoundTrip(t *testing.T, p *hdface.Pipeline) *hdface.Pipeline {
	t.Helper()
	var buf bytes.Buffer
	if err := p.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := hdface.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestSnapshotRoundTripByteIdentical is the snapshot contract: a loaded
// pipeline must reproduce the saving pipeline's Predict and Scores outputs
// exactly (float-for-float), for every front-end mode, with parallel
// extraction. Run with -race to exercise the workers > 1 paths.
func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	train, labels := tinyFaceSet(24, 3)
	probes, _ := tinyFaceSet(8, 77)
	for _, mode := range []hdface.Mode{hdface.ModeStochHOG, hdface.ModeOrigHOG} {
		cfg := hdface.Config{D: 1024, Mode: mode, Seed: 11, WorkingSize: 32, Workers: 2}
		p := hdface.New(cfg)
		if err := p.Fit(train, labels, 2); err != nil {
			t.Fatal(err)
		}
		q := snapshotRoundTrip(t, p)
		if !reflect.DeepEqual(q.Config(), p.Config()) {
			t.Fatalf("%v: config changed over the wire:\n got %+v\nwant %+v", mode, q.Config(), p.Config())
		}
		for i, img := range probes {
			ps, qs := p.Scores(img), q.Scores(img)
			if !reflect.DeepEqual(ps, qs) {
				t.Fatalf("%v: probe %d scores differ:\n got %v\nwant %v", mode, i, qs, ps)
			}
			if p.Predict(img) != q.Predict(img) {
				t.Fatalf("%v: probe %d prediction differs", mode, i)
			}
		}
		// The loaded pipeline's batch path must agree with the original's
		// single-image path regardless of worker count.
		q.SetWorkers(3)
		feats := q.Features(probes)
		for i, img := range probes {
			if !feats[i].Equal(p.Feature(img)) {
				t.Fatalf("%v: probe %d batch feature differs from original", mode, i)
			}
		}
	}
}

// TestSnapshotRoundTripDetect runs a full detection sweep on both sides of
// the wire and requires byte-identical boxes.
func TestSnapshotRoundTripDetect(t *testing.T) {
	p := trainedDetectPipeline(t, 1024)
	q := snapshotRoundTrip(t, p)
	scene := dataset.GenerateScene(128, 128, 48, 1, 33).Image
	params := detect.Params{Win: 48, Stride: 24, Scales: []float64{1, 2}, NMSIoU: 0.3, Workers: 2}
	sweep := func(pl *hdface.Pipeline) []detect.Box {
		scorer, err := pl.DetectScorer(nil, 48)
		if err != nil {
			t.Fatal(err)
		}
		boxes, _, err := detect.Sweep(context.Background(), scene, scorer, params)
		if err != nil {
			t.Fatal(err)
		}
		return boxes
	}
	want := sweep(p)
	if got := sweep(q); !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded pipeline detections differ:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotUntrained round-trips a pipeline snapshotted before Fit.
func TestSnapshotUntrained(t *testing.T) {
	p := hdface.New(hdface.Config{D: 512, Seed: 9, WorkingSize: 32})
	q := snapshotRoundTrip(t, p)
	if q.Model() != nil {
		t.Fatal("untrained snapshot grew a model")
	}
	imgs, _ := tinyFaceSet(2, 5)
	if !q.Feature(imgs[0]).Equal(p.Feature(imgs[0])) {
		t.Fatal("untrained loaded pipeline extracts differently")
	}
}

// TestSnapshotFileRoundTrip exercises the atomic file helpers.
func TestSnapshotFileRoundTrip(t *testing.T) {
	imgs, labels := tinyFaceSet(16, 4)
	p := hdface.New(hdface.Config{D: 512, Seed: 8, WorkingSize: 32, Workers: 1})
	if err := p.Fit(imgs, labels, 2); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.hdf"
	if err := p.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	q, err := hdface.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if q.Predict(imgs[0]) != p.Predict(imgs[0]) {
		t.Fatal("file round trip changed prediction")
	}
}

// TestSnapshotRejectsHostileInput covers the validation layer: wrong magic,
// truncations, oversized config claims and out-of-range configs must all
// fail with errors, never panic or over-allocate.
func TestSnapshotRejectsHostileInput(t *testing.T) {
	imgs, labels := tinyFaceSet(16, 4)
	p := hdface.New(hdface.Config{D: 512, Seed: 8, WorkingSize: 32, Workers: 1})
	if err := p.Fit(imgs, labels, 2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := map[string][]byte{
		"empty":            {},
		"wrong magic":      []byte("hdface-model/v9\n" + string(valid[16:])),
		"magic only":       valid[:16],
		"truncated config": valid[:24],
		"huge config len":  append(append([]byte{}, valid[:16]...), 0xff, 0xff, 0xff, 0xff),
		"zero config len":  append(append([]byte{}, valid[:16]...), 0, 0, 0, 0),
		"truncated model":  valid[:len(valid)-8],
	}
	for name, data := range cases {
		if _, err := hdface.LoadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Out-of-range configs must be rejected before they drive allocation.
	for name, cfg := range map[string]hdface.Config{
		"mode":         {D: 512, Mode: hdface.Mode(9), Workers: 1},
		"mode 2":       {D: 512, Mode: hdface.Mode(2), Workers: 1},
		"mode 3":       {D: 512, Mode: hdface.Mode(3), Workers: 1},
		"working size": {D: 512, WorkingSize: 1 << 20, Workers: 1},
		"workers":      {D: 512, Workers: 1 << 20},
		"stride":       {D: 512, Workers: 1, Stride: 1 << 16},
	} {
		bad := hdface.New(hdface.Config{D: 512, Workers: 1})
		var bb bytes.Buffer
		if err := bad.SaveSnapshot(&bb); err != nil {
			t.Fatal(err)
		}
		// Re-save with the hostile config by snapshotting a pipeline built
		// from it is impossible (New would normalise), so splice: encode a
		// fresh snapshot whose config section comes from the raw struct.
		spliced := spliceConfig(t, bb.Bytes(), cfg)
		if _, err := hdface.LoadSnapshot(bytes.NewReader(spliced)); err == nil {
			t.Errorf("config %s: accepted", name)
		} else if !strings.Contains(err.Error(), "snapshot config") {
			t.Errorf("config %s: error %q does not blame the config", name, err)
		}
	}

	// The encoders refuse the same configs before writing a byte, so a
	// pipeline built with an unknown mode cannot save a snapshot that no
	// decoder would load.
	for _, mode := range []hdface.Mode{2, 9} {
		cfg := hdface.Config{D: 512, Mode: mode, Workers: 1}
		encoders := map[string]func(io.Writer) error{
			"SaveSnapshot":     hdface.New(cfg).SaveSnapshot,
			"EncodeSnapshotV2": func(w io.Writer) error { return hdface.EncodeSnapshotV2(w, cfg, p.Model()) },
		}
		for name, encode := range encoders {
			var out bytes.Buffer
			if err := encode(&out); err == nil {
				t.Errorf("%s with mode %d: accepted", name, mode)
			} else if !strings.Contains(err.Error(), "snapshot config") {
				t.Errorf("%s with mode %d: error %q does not blame the config", name, mode, err)
			}
			if out.Len() != 0 {
				t.Errorf("%s with mode %d: wrote %d bytes before refusing", name, mode, out.Len())
			}
		}
	}

	// A model whose D disagrees with the config must be rejected.
	other := hdface.New(hdface.Config{D: 256, Seed: 8, WorkingSize: 32, Workers: 1})
	if err := other.Fit(imgs, labels, 2); err != nil {
		t.Fatal(err)
	}
	var ob bytes.Buffer
	if err := other.SaveSnapshot(&ob); err != nil {
		t.Fatal(err)
	}
	mismatched := spliceConfig(t, ob.Bytes(), hdface.Config{D: 512, Workers: 1})
	if _, err := hdface.LoadSnapshot(bytes.NewReader(mismatched)); err == nil {
		t.Error("model/config D mismatch accepted")
	}
}

// TestSnapshotV2RoundTrip pins the compact container contract: the config
// survives exactly, the binarised class memory is bit-exact (so a fused
// Hamming detection sweep is byte-identical to the v1 float path), and the
// auto-sniffing decoder plus header peek handle both versions.
func TestSnapshotV2RoundTrip(t *testing.T) {
	p := trainedDetectPipeline(t, 1024)
	var v1, v2 bytes.Buffer
	if err := hdface.EncodeSnapshot(&v1, p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	if err := hdface.EncodeSnapshotV2(&v2, p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	if v2.Len() >= v1.Len() {
		t.Fatalf("compact snapshot %dB not smaller than v1 %dB", v2.Len(), v1.Len())
	}

	// Strict decoders refuse the other container version.
	if _, _, err := hdface.DecodeSnapshot(bytes.NewReader(v2.Bytes())); err == nil {
		t.Fatal("v1 decoder accepted a v2 blob")
	}
	if _, _, err := hdface.DecodeSnapshotV2(bytes.NewReader(v1.Bytes())); err == nil {
		t.Fatal("v2 decoder accepted a v1 blob")
	}

	cfgV1, mV1, err := hdface.DecodeSnapshotAuto(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cfgV2, mV2, err := hdface.DecodeSnapshotAuto(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfgV1, cfgV2) {
		t.Fatalf("configs diverge across container versions: %+v vs %+v", cfgV1, cfgV2)
	}
	for c := range mV1.Bin {
		if !reflect.DeepEqual(mV1.Bin[c].Words(), mV2.Bin[c].Words()) {
			t.Fatalf("class %d binarised memory not bit-exact across versions", c)
		}
	}

	// Header peek sees the config without touching the class memory.
	cfg, hasModel, compact, err := hdface.SnapshotInfo(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !hasModel || !compact || !reflect.DeepEqual(cfg, cfgV2) {
		t.Fatalf("SnapshotInfo(v2) = (%+v, %v, %v)", cfg, hasModel, compact)
	}
	if _, _, compact, err = hdface.SnapshotInfo(bytes.NewReader(v1.Bytes())); err != nil || compact {
		t.Fatalf("SnapshotInfo(v1): compact=%v err=%v", compact, err)
	}

	// The serving hot path (fused Hamming sweep) must be byte-identical
	// between an eager v1 load and a compact v2 load, at any worker count.
	scene := dataset.GenerateScene(128, 128, 48, 1, 34).Image
	sweep := func(m2 *hdc.Model, workers int) []detect.Box {
		scorer, err := p.DetectScorer(m2, 48)
		if err != nil {
			t.Fatal(err)
		}
		scorer.Hamming = true
		scorer.Fused = true
		params := detect.Params{Win: 48, Stride: 24, Scales: []float64{1, 2}, NMSIoU: 0.3, Workers: workers}
		boxes, _, err := detect.Sweep(context.Background(), scene, scorer, params)
		if err != nil {
			t.Fatal(err)
		}
		return boxes
	}
	want := sweep(mV1, 1)
	for _, workers := range []int{1, 2, 4} {
		if got := sweep(mV2, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: v2 sweep differs from v1:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}
