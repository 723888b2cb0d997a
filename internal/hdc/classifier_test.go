package hdc

import (
	"bytes"
	"math"
	"testing"

	"hdface/internal/hv"
)

// makeClusters builds an easy synthetic problem: k cluster prototypes and
// noisy members that flip a fraction of bits.
func makeClusters(d, k, perClass int, flip float64, seed uint64) (feats []*hv.Vector, labels []int, protos []*hv.Vector) {
	r := hv.NewRNG(seed)
	for c := 0; c < k; c++ {
		protos = append(protos, hv.NewRand(r, d))
	}
	for c := 0; c < k; c++ {
		for i := 0; i < perClass; i++ {
			v := protos[c].Clone()
			mask := hv.NewRandBiased(r, d, flip)
			v.Xor(v, mask)
			feats = append(feats, v)
			labels = append(labels, c)
		}
	}
	return
}

// mustTrain wraps Train for the happy-path tests, failing the test on the
// input-validation errors they never trigger.
func mustTrain(tb testing.TB, feats []*hv.Vector, labels []int, k int, opts TrainOpts) *Model {
	tb.Helper()
	m, err := Train(feats, labels, k, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewModel(0, 2) },
		func() { NewModel(64, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid NewModel did not panic")
				}
			}()
			f()
		}()
	}
}

func TestTrainSeparatesClusters(t *testing.T) {
	feats, labels, _ := makeClusters(2048, 4, 20, 0.25, 1)
	m := mustTrain(t, feats, labels, 4, TrainOpts{})
	if acc := m.Accuracy(feats, labels); acc < 0.95 {
		t.Fatalf("train accuracy %v on easy clusters", acc)
	}
	// Held-out members of the same clusters.
	test, tlabels, _ := makeClusters(2048, 4, 10, 0.25, 1) // same seed -> same protos
	if acc := m.Accuracy(test, tlabels); acc < 0.9 {
		t.Fatalf("test accuracy %v", acc)
	}
}

func TestPredictScoresConsistency(t *testing.T) {
	feats, labels, protos := makeClusters(1024, 3, 10, 0.2, 2)
	m := mustTrain(t, feats, labels, 3, TrainOpts{})
	for c, p := range protos {
		scores := m.Scores(p)
		if len(scores) != 3 {
			t.Fatal("wrong score count")
		}
		if m.Predict(p) != c {
			t.Fatalf("prototype %d misclassified", c)
		}
		best := 0
		for i, s := range scores {
			if s > scores[best] {
				best = i
			}
		}
		if best != c {
			t.Fatalf("scores argmax %d != %d", best, c)
		}
	}
}

func TestScoresPanicsOnDimensionMismatch(t *testing.T) {
	m := NewModel(64, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	m.Scores(hv.New(128))
}

func TestBootstrapSkipsRedundant(t *testing.T) {
	// Many near-identical samples per class: after the first few, the
	// bootstrap pass should start skipping.
	feats, labels, _ := makeClusters(2048, 2, 50, 0.05, 3)
	m := mustTrain(t, feats, labels, 2, TrainOpts{Epochs: 1})
	if m.Stats.BootstrapSkips == 0 {
		t.Fatal("no bootstrap skips on redundant data")
	}
	if m.Stats.BootstrapAdds == 0 {
		t.Fatal("no bootstrap adds at all")
	}
	if m.Stats.BootstrapAdds+m.Stats.BootstrapSkips != 100 {
		t.Fatalf("adds %d + skips %d != samples", m.Stats.BootstrapAdds, m.Stats.BootstrapSkips)
	}
}

func TestAdaptiveEpochsImprove(t *testing.T) {
	// A harder problem: high flip rate. Adaptive training must beat the
	// pure bootstrap pass.
	feats, labels, _ := makeClusters(1024, 5, 30, 0.42, 4)
	naive := mustTrain(t, feats, labels, 5, TrainOpts{Epochs: 1, BootstrapMargin: -1e9})
	// BootstrapMargin below any gap means every sample is memorised, and a
	// single epoch of refinement barely runs: this approximates the naive
	// bundling baseline of DESIGN.md's ablation.
	adaptive := mustTrain(t, feats, labels, 5, TrainOpts{Epochs: 30})
	an := naive.Accuracy(feats, labels)
	aa := adaptive.Accuracy(feats, labels)
	if aa < an {
		t.Fatalf("adaptive %v worse than naive %v", aa, an)
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	r := hv.NewRNG(1)
	f64 := hv.NewRand(r, 64)
	f32 := hv.NewRand(r, 32)
	cases := []struct {
		name   string
		feats  []*hv.Vector
		labels []int
		k      int
	}{
		{"empty", nil, nil, 2},
		{"k too small", []*hv.Vector{f64}, []int{0}, 1},
		{"misaligned", []*hv.Vector{f64}, []int{0, 1}, 2},
		{"label out of range", []*hv.Vector{f64}, []int{2}, 2},
		{"negative label", []*hv.Vector{f64}, []int{-1}, 2},
		{"nil feature", []*hv.Vector{f64, nil}, []int{0, 1}, 2},
		{"dim mismatch", []*hv.Vector{f64, f32}, []int{0, 1}, 2},
	}
	for _, c := range cases {
		if _, err := Train(c.feats, c.labels, c.k, TrainOpts{}); err == nil {
			t.Errorf("%s: Train accepted invalid input", c.name)
		}
	}
}

func TestUpdateRejectsBadInput(t *testing.T) {
	feats, labels, _ := makeClusters(64, 2, 5, 0.2, 9)
	m := mustTrain(t, feats, labels, 2, TrainOpts{})
	r := hv.NewRNG(2)
	if _, err := m.Update(nil, nil, TrainOpts{}); err == nil {
		t.Error("Update accepted empty batch")
	}
	if _, err := m.Update([]*hv.Vector{hv.NewRand(r, 32)}, []int{0}, TrainOpts{}); err == nil {
		t.Error("Update accepted dimension mismatch")
	}
	if _, err := m.Update([]*hv.Vector{hv.NewRand(r, 64)}, []int{5}, TrainOpts{}); err == nil {
		t.Error("Update accepted out-of-range label")
	}
}

func TestUpdateRefinesModel(t *testing.T) {
	feats, labels, _ := makeClusters(1024, 3, 20, 0.35, 11)
	m := mustTrain(t, feats, labels, 3, TrainOpts{Epochs: 1, BootstrapMargin: -1e9})
	before := m.Accuracy(feats, labels)
	for i := 0; i < 20; i++ {
		if _, err := m.Update(feats, labels, TrainOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if after := m.Accuracy(feats, labels); after < before {
		t.Fatalf("Update degraded accuracy %v -> %v", before, after)
	}
}

func TestCloneIndependence(t *testing.T) {
	feats, labels, _ := makeClusters(512, 2, 10, 0.2, 12)
	m := mustTrain(t, feats, labels, 2, TrainOpts{})
	m.Finalize(3)
	c := m.Clone()
	if c.D != m.D || c.K != m.K {
		t.Fatal("clone geometry differs")
	}
	for i := range m.Classes {
		for j := range m.Classes[i] {
			if m.Classes[i][j] != c.Classes[i][j] {
				t.Fatalf("accumulator %d/%d differs", i, j)
			}
		}
		if !m.Bin[i].Equal(c.Bin[i]) {
			t.Fatalf("binary class %d differs", i)
		}
	}
	// Mutating the clone must not touch the original.
	orig := m.Classes[0][0]
	c.Classes[0][0] += 1000
	c.Bin[0].SetBit(0, 1-c.Bin[0].Bit(0))
	if m.Classes[0][0] != orig {
		t.Fatal("clone shares accumulator storage")
	}
	mb := mustTrain(t, feats, labels, 2, TrainOpts{})
	mb.Finalize(3)
	if !m.Bin[0].Equal(mb.Bin[0]) {
		t.Fatal("original binary vector mutated through clone")
	}
}

func TestFinalizeAndPredictBinary(t *testing.T) {
	feats, labels, _ := makeClusters(2048, 3, 20, 0.2, 5)
	m := mustTrain(t, feats, labels, 3, TrainOpts{})
	m.Finalize(7)
	if len(m.Bin) != 3 {
		t.Fatal("Finalize did not produce class vectors")
	}
	correct := 0
	for i, f := range feats {
		if m.PredictBinary(f) == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(feats)); acc < 0.9 {
		t.Fatalf("binary accuracy %v", acc)
	}
}

func TestPredictBinaryBeforeFinalizePanics(t *testing.T) {
	m := NewModel(64, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic before Finalize")
		}
	}()
	m.PredictBinary(hv.New(64))
}

func TestBinaryMatchesFloatOnClearCases(t *testing.T) {
	feats, labels, protos := makeClusters(4096, 2, 20, 0.15, 6)
	m := mustTrain(t, feats, labels, 2, TrainOpts{})
	m.Finalize(1)
	for c, p := range protos {
		if m.Predict(p) != c || m.PredictBinary(p) != c {
			t.Fatalf("prototype %d: float %d binary %d want %d",
				c, m.Predict(p), m.PredictBinary(p), c)
		}
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := NewModel(64, 2)
	if m.Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy != 0")
	}
}

func TestCosEmptyModelIsZero(t *testing.T) {
	m := NewModel(64, 2)
	r := hv.NewRNG(1)
	if got := m.Scores(hv.NewRand(r, 64)); got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty model scores %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	feats, labels, _ := makeClusters(512, 3, 10, 0.2, 8)
	m := mustTrain(t, feats, labels, 3, TrainOpts{})
	m.Finalize(2)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.D != m.D || got.K != m.K {
		t.Fatal("geometry lost")
	}
	for c := range m.Classes {
		for i := range m.Classes[c] {
			if m.Classes[c][i] != got.Classes[c][i] {
				t.Fatalf("accumulator %d/%d differs", c, i)
			}
		}
		if !m.Bin[c].Equal(got.Bin[c]) {
			t.Fatalf("binary class %d differs", c)
		}
	}
	// Predictions identical.
	for _, f := range feats {
		if m.Predict(f) != got.Predict(f) {
			t.Fatal("prediction changed after round trip")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage loaded")
	}
	// Structurally invalid: D = 0.
	var buf bytes.Buffer
	m := NewModel(64, 2)
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt by re-encoding with a broken wire struct is cumbersome;
	// instead check the validation path with a truncated stream.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated model loaded")
	}
}

// hostileHeader builds a model stream whose binary header claims the given
// geometry, with whatever payload follows.
func hostileHeader(d, k uint32, payload []byte) []byte {
	buf := []byte("HDC1")
	buf = append(buf, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
	buf = append(buf, byte(k), byte(k>>8), byte(k>>16), byte(k>>24))
	return append(buf, payload...)
}

// TestLoadRejectsHostileGeometry pins the pre-decode header guard: a
// snapshot declaring an absurd D or K must be rejected from the 12-byte
// header alone, before any gob decoding can allocate proportionally to it.
func TestLoadRejectsHostileGeometry(t *testing.T) {
	cases := []struct {
		name string
		d, k uint32
	}{
		{"zero-d", 0, 2},
		{"huge-d", 1 << 30, 2},
		{"k-below-two", 4096, 1},
		{"huge-k", 4096, 1 << 28},
	}
	for _, c := range cases {
		data := hostileHeader(c.d, c.k, bytes.Repeat([]byte{0xff}, 64))
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: hostile header loaded", c.name)
		}
	}
}

// TestLoadRejectsOversizedPayload asserts the payload limit derived from
// the header: an honest small header followed by a gob stream much larger
// than the declared geometry justifies must fail, not be slurped whole.
func TestLoadRejectsOversizedPayload(t *testing.T) {
	feats, labels, _ := makeClusters(64, 2, 4, 0.2, 31)
	m := mustTrain(t, feats, labels, 2, TrainOpts{})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Re-head the honest payload with a tiny claimed geometry: the limit
	// computed from (8, 2) cannot cover a D=64 payload, and even if it
	// could, the geometry cross-check fires.
	if _, err := Load(bytes.NewReader(hostileHeader(8, 2, buf.Bytes()[12:]))); err == nil {
		t.Fatal("payload exceeding header-derived budget loaded")
	}
}

// TestLoadRejectsNonFinite asserts NaN/Inf accumulator values are refused:
// one poisoned dimension would silently corrupt every cosine similarity.
func TestLoadRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := NewModel(16, 2)
		m.Classes[1][7] = bad
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Fatalf("model with %v accumulator loaded", bad)
		}
	}
}

// TestLoadRejectsHeaderPayloadMismatch covers a payload whose gob geometry
// contradicts the (plausible) header.
func TestLoadRejectsHeaderPayloadMismatch(t *testing.T) {
	m := NewModel(64, 2)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(hostileHeader(128, 2, buf.Bytes()[12:]))); err == nil {
		t.Fatal("header/payload geometry mismatch loaded")
	}
}

func TestTrainDeterministic(t *testing.T) {
	feats, labels, _ := makeClusters(512, 3, 15, 0.3, 9)
	a := mustTrain(t, feats, labels, 3, TrainOpts{Seed: 5})
	b := mustTrain(t, feats, labels, 3, TrainOpts{Seed: 5})
	for c := range a.Classes {
		for i := range a.Classes[c] {
			if a.Classes[c][i] != b.Classes[c][i] {
				t.Fatal("training not deterministic")
			}
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	feats, labels, _ := makeClusters(512, 4, 10, 0.45, 10)
	m := mustTrain(t, feats, labels, 4, TrainOpts{Epochs: 5})
	if m.Stats.Similarities == 0 || m.Stats.Epochs == 0 {
		t.Fatalf("stats empty: %+v", m.Stats)
	}
}

func TestMarginOfSeparationGrowsWithD(t *testing.T) {
	// Higher dimensionality should not hurt accuracy on a fixed problem —
	// the Figure 5a trend.
	accAt := func(d int) float64 {
		feats, labels, _ := makeClusters(d, 4, 20, 0.44, 11)
		test, tl, _ := makeClusters(d, 4, 10, 0.44, 11)
		m := mustTrain(t, feats, labels, 4, TrainOpts{})
		return m.Accuracy(test, tl)
	}
	lo, hi := accAt(256), accAt(4096)
	if hi < lo-0.05 {
		t.Fatalf("accuracy degraded with D: %v -> %v", lo, hi)
	}
	if hi < 0.7 {
		t.Fatalf("high-D accuracy too low: %v", hi)
	}
}

func TestNoiseRobustnessOfBinaryModel(t *testing.T) {
	// Flipping a small fraction of model bits must barely change accuracy
	// (HDC's holographic robustness, Table 2's mechanism).
	feats, labels, _ := makeClusters(4096, 2, 20, 0.2, 12)
	m := mustTrain(t, feats, labels, 2, TrainOpts{})
	m.Finalize(3)
	base := 0
	for i, f := range feats {
		if m.PredictBinary(f) == labels[i] {
			base++
		}
	}
	r := hv.NewRNG(13)
	for _, cv := range m.Bin {
		noise := hv.NewRandBiased(r, 4096, 0.05)
		cv.Xor(cv, noise)
	}
	noisy := 0
	for i, f := range feats {
		if m.PredictBinary(f) == labels[i] {
			noisy++
		}
	}
	if float64(base-noisy)/float64(len(feats)) > 0.05 {
		t.Fatalf("5%% bit flips cost %d of %d correct", base-noisy, base)
	}
}

func BenchmarkTrainD4k(b *testing.B) {
	feats, labels, _ := makeClusters(4096, 2, 50, 0.3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustTrain(b, feats, labels, 2, TrainOpts{Epochs: 5})
	}
}

func BenchmarkPredictD4k(b *testing.B) {
	feats, labels, _ := makeClusters(4096, 2, 50, 0.3, 1)
	m := mustTrain(b, feats, labels, 2, TrainOpts{Epochs: 5})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Predict(feats[i%len(feats)])
	}
}

func BenchmarkPredictBinaryD4k(b *testing.B) {
	feats, labels, _ := makeClusters(4096, 2, 50, 0.3, 1)
	m := mustTrain(b, feats, labels, 2, TrainOpts{Epochs: 5})
	m.Finalize(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.PredictBinary(feats[i%len(feats)])
	}
}

func TestMarginReinforcementOption(t *testing.T) {
	feats, labels, _ := makeClusters(1024, 3, 20, 0.4, 14)
	m := mustTrain(t, feats, labels, 3, TrainOpts{Epochs: 10, Margin: 0.05})
	if m.Stats.AdaptiveSteps == 0 {
		t.Fatal("margin reinforcement never fired on a hard problem")
	}
	if acc := m.Accuracy(feats, labels); acc < 0.9 {
		t.Fatalf("margin-trained accuracy %v", acc)
	}
	// Disabled by default: a margin of zero must not reinforce correct
	// predictions (only mistakes drive updates).
	m2 := mustTrain(t, feats, labels, 3, TrainOpts{Epochs: 10})
	if m2.Stats.AdaptiveSteps > m.Stats.AdaptiveSteps {
		t.Fatal("default training performed more updates than margin training")
	}
}

func TestShrinkPreservesSeparation(t *testing.T) {
	// A model trained at high D keeps classifying after dimensionality
	// reduction — the paper's redundancy claim.
	feats, labels, _ := makeClusters(8192, 3, 20, 0.3, 21)
	m := mustTrain(t, feats, labels, 3, TrainOpts{})
	m.Finalize(1)
	full := m.Accuracy(feats, labels)

	small := m.Shrink(1024, nil)
	var shrunk []*hv.Vector
	for _, f := range feats {
		shrunk = append(shrunk, ShrinkVector(f, 1024, nil))
	}
	reduced := small.Accuracy(shrunk, labels)
	if reduced < full-0.1 {
		t.Fatalf("8x reduction dropped accuracy %v -> %v", full, reduced)
	}
	// Binary form carried over.
	if small.Bin == nil || small.Bin[0].D() != 1024 {
		t.Fatal("binary classes not shrunk")
	}
	correct := 0
	for i, f := range shrunk {
		if small.PredictBinary(f) == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(shrunk)); acc < full-0.15 {
		t.Fatalf("binary reduced accuracy %v vs full %v", acc, full)
	}
}

func TestShrinkWithPermutation(t *testing.T) {
	feats, labels, _ := makeClusters(2048, 2, 10, 0.2, 22)
	m := mustTrain(t, feats, labels, 2, TrainOpts{})
	r := hv.NewRNG(5)
	perm := r.Perm(2048)
	small := m.Shrink(512, perm)
	var shrunk []*hv.Vector
	for _, f := range feats {
		shrunk = append(shrunk, ShrinkVector(f, 512, perm))
	}
	if acc := small.Accuracy(shrunk, labels); acc < 0.9 {
		t.Fatalf("permuted shrink accuracy %v", acc)
	}
}

func TestShrinkValidation(t *testing.T) {
	m := NewModel(64, 2)
	for name, f := range map[string]func(){
		"zero":      func() { m.Shrink(0, nil) },
		"oversize":  func() { m.Shrink(128, nil) },
		"shortperm": func() { m.Shrink(32, []int{1, 2}) },
		"vec-over":  func() { ShrinkVector(hv.New(64), 128, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
