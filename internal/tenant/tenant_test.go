package tenant

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/hdc"
	"hdface/internal/hv"
)

// testPipeline trains a small face/non-face pipeline whose model is
// finalized and detect-capable.
func testPipeline(tb testing.TB, d int, seed uint64) *hdface.Pipeline {
	tb.Helper()
	r := hv.NewRNG(seed)
	var imgs []*hdface.Image
	var labels []int
	for i := 0; i < 16; i++ {
		if i%2 == 1 {
			imgs = append(imgs, dataset.RenderFace(32, 32, dataset.Emotion(r.Intn(7)), r))
			labels = append(labels, 1)
		} else {
			imgs = append(imgs, dataset.RenderNonFace(32, 32, r))
			labels = append(labels, 0)
		}
	}
	p := hdface.New(hdface.Config{D: d, Seed: 17, WorkingSize: 32, Workers: 1})
	if err := p.Fit(imgs, labels, 2); err != nil {
		tb.Fatal(err)
	}
	return p
}

// probeFeatures extracts deterministic probe features from the pipeline.
func probeFeatures(tb testing.TB, p *hdface.Pipeline, n int, seed uint64) []*hv.Vector {
	tb.Helper()
	r := hv.NewRNG(seed)
	var imgs []*hdface.Image
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			imgs = append(imgs, dataset.RenderFace(32, 32, dataset.Emotion(r.Intn(7)), r))
		} else {
			imgs = append(imgs, dataset.RenderNonFace(32, 32, r))
		}
	}
	return p.Features(imgs)
}

// hamScore is one binarised-memory scoring result; equality between two
// hamScores is the byte-identity the compact round-trip guarantees.
type hamScore struct {
	face  bool
	score float64
}

func ham(m *hdc.Model, f *hv.Vector) hamScore {
	face, score := m.ScoreBinaryHamming(f)
	return hamScore{face, score}
}

func TestValidID(t *testing.T) {
	for _, good := range []string{"a", "tenant-1", "Acme_Corp.eu", "x9"} {
		if err := ValidID(good); err != nil {
			t.Errorf("ValidID(%q) = %v", good, err)
		}
	}
	long := make([]byte, maxIDLen+1)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".hidden", "a/b", "a b", "ü", string(long)} {
		if err := ValidID(bad); err == nil {
			t.Errorf("ValidID(%q) accepted", bad)
		}
	}
}

func TestPutPromoteLive(t *testing.T) {
	p := testPipeline(t, 256, 1)
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Live("nobody"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Live on unknown tenant = %v, want ErrUnknownTenant", err)
	}
	id, err := s.Put("acme", p.Config(), p.Model())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Live("acme"); !errors.Is(err, ErrNoLive) {
		t.Fatalf("Live before Promote = %v, want ErrNoLive", err)
	}
	if err := s.Promote("acme", id); err != nil {
		t.Fatal(err)
	}
	v, m, err := s.Model("acme")
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != id || m == nil || m.D != 256 {
		t.Fatalf("Model = (%+v, %+v)", v, m)
	}
	// Unfinalized models are rejected: the compact store exists to carry
	// binarized class memory.
	raw := hdc.NewModel(256, 2)
	if _, err := s.Put("acme", p.Config(), raw); err == nil {
		t.Fatal("unfinalized model accepted")
	}
	// Incompatible configs are rejected: the store shares one pipeline.
	other := p.Config()
	other.D = 512
	om := testPipeline(t, 512, 2).Model()
	if _, err := s.Put("acme2", other, om); err == nil {
		t.Fatal("incompatible config accepted")
	}
	if _, err := s.Put("bad/id", p.Config(), p.Model()); err == nil {
		t.Fatal("invalid tenant id accepted")
	}
}

// TestLazyMatchesEagerV1 is the materialization-correctness contract
// (satellite): Hamming scores from the lazily materialized compact tenant
// model must be byte-identical to an eagerly loaded v1 snapshot of the
// same model, at any concurrency. Run with -race.
func TestLazyMatchesEagerV1(t *testing.T) {
	p := testPipeline(t, 512, 3)
	var v1 bytes.Buffer
	if err := hdface.EncodeSnapshot(&v1, p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	_, eager, err := hdface.DecodeSnapshot(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seed("acme", p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	feats := probeFeatures(t, p, 16, 99)
	want := make([]hamScore, len(feats))
	for i, f := range feats {
		want[i] = ham(eager, f)
	}
	// Many goroutines race the first materialization and score; every
	// distance must match the eager model bit-for-bit, and all workers
	// must observe the same single materialized instance.
	const workers = 8
	models := make([]*hdc.Model, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, m, err := s.Model("acme")
			if err != nil {
				t.Error(err)
				return
			}
			models[w] = m
			for i, f := range feats {
				if got := ham(m, f); got != want[i] {
					t.Errorf("worker %d probe %d: lazy scores %v != eager %v", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w < workers; w++ {
		if models[w] != models[0] {
			t.Fatal("concurrent first users materialized more than one instance")
		}
	}
	st := s.Stats()
	if st.MaterializedCount != 1 {
		t.Fatalf("materialized count = %d, want 1", st.MaterializedCount)
	}
}

func TestLRUEviction(t *testing.T) {
	p := testPipeline(t, 256, 4)
	m := p.Model()
	one := materializedBytes(m)
	s, err := Open(Config{BudgetBytes: 3 * one})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"t0", "t1", "t2", "t3", "t4", "t5"}
	for _, id := range ids {
		if _, err := s.Seed(id, p.Config(), m); err != nil {
			t.Fatal(err)
		}
	}
	feats := probeFeatures(t, p, 2, 5)
	want := ham(m, feats[0])
	var held *hdc.Model
	for _, id := range ids {
		_, mm, err := s.Model(id)
		if err != nil {
			t.Fatal(err)
		}
		if held == nil {
			held = mm // in-flight reader keeps this across evictions
		}
	}
	st := s.Stats()
	if st.MaterializedBytes > 3*one {
		t.Fatalf("budget overrun: %d > %d", st.MaterializedBytes, 3*one)
	}
	if st.MaterializedCount > 3 {
		t.Fatalf("materialized %d models under a 3-model budget", st.MaterializedCount)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	// The first tenant was evicted; its version demoted but intact.
	v, err := s.Live("t0")
	if err != nil {
		t.Fatal(err)
	}
	if v.Materialized() {
		t.Fatal("LRU head survived tail eviction order")
	}
	// The evicted reader's pointer is still a valid immutable model.
	if got := ham(held, feats[0]); got != want {
		t.Fatal("in-flight model corrupted by eviction")
	}
	// Re-materialization after eviction is exact.
	_, mm, err := s.Model("t0")
	if err != nil {
		t.Fatal(err)
	}
	if got := ham(mm, feats[0]); got != want {
		t.Fatal("re-materialized model differs")
	}
}

func TestPersistenceReload(t *testing.T) {
	p := testPipeline(t, 256, 6)
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alpha", "beta"} {
		if _, err := s.Seed(id, p.Config(), p.Model()); err != nil {
			t.Fatal(err)
		}
	}
	// Second version for alpha, left unpromoted.
	if _, err := s.Put("alpha", p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	feats := probeFeatures(t, p, 2, 7)
	_, m1, err := s.Model("alpha")
	if err != nil {
		t.Fatal(err)
	}
	want := ham(m1, feats[0])

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("reloaded %d tenants, want 2", s2.Len())
	}
	if cfg, ok := s2.BaseConfig(); !ok || cfg.D != 256 {
		t.Fatalf("base config lost: %+v %v", cfg, ok)
	}
	v, m2, err := s2.Model("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 1 {
		t.Fatalf("alpha live version %d after reload, want 1", v.ID)
	}
	if got := ham(m2, feats[0]); got != want {
		t.Fatal("reloaded model scores differ")
	}
	infos := s2.Tenants()
	if len(infos) != 2 || infos[0].ID != "alpha" || infos[0].Versions != 2 {
		t.Fatalf("Tenants() = %+v", infos)
	}
}

func TestFeedbackRoundIsolation(t *testing.T) {
	p := testPipeline(t, 256, 8)
	s, err := Open(Config{FeedbackBatch: 4, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"learner", "frozen"} {
		if _, err := s.Seed(id, p.Config(), p.Model()); err != nil {
			t.Fatal(err)
		}
	}
	feats := probeFeatures(t, p, 8, 11)
	var promoted uint64
	for i, f := range feats {
		id, err := s.Feedback("learner", f, i%2)
		if err != nil {
			t.Fatal(err)
		}
		if id != 0 {
			promoted = id
		}
	}
	if promoted == 0 {
		t.Fatal("8 samples at batch 4 never promoted a round")
	}
	lv, _, err := s.Model("learner")
	if err != nil {
		t.Fatal(err)
	}
	if lv.ID != promoted {
		t.Fatalf("learner live = %d, want promoted round %d", lv.ID, promoted)
	}
	// The other tenant's lineage is untouched.
	fv, fm, err := s.Model("frozen")
	if err != nil {
		t.Fatal(err)
	}
	if fv.ID != 1 {
		t.Fatalf("frozen tenant advanced to version %d", fv.ID)
	}
	for c := range p.Model().Bin {
		if !reflect.DeepEqual(fm.Bin[c].Words(), p.Model().Bin[c].Words()) {
			t.Fatal("frozen tenant's class memory changed")
		}
	}
	// Feedback against bad labels / unknown tenants is rejected.
	if _, err := s.Feedback("learner", feats[0], 7); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := s.Feedback("ghost", feats[0], 0); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("feedback to unknown tenant = %v", err)
	}
}

func TestRetention(t *testing.T) {
	p := testPipeline(t, 256, 9)
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seed("acme", p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Put("acme", p.Config(), p.Model()); err != nil {
			t.Fatal(err)
		}
	}
	infos := s.Tenants()
	// Live (v1) and newest (v5) are protected; retention may hold a third
	// transiently but never more than retain+1.
	if infos[0].Versions > 3 {
		t.Fatalf("retention kept %d versions", infos[0].Versions)
	}
	files, err := filepath.Glob(filepath.Join(dir, "acme", "v*.hdfs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != infos[0].Versions {
		t.Fatalf("%d files on disk vs %d versions resident", len(files), infos[0].Versions)
	}
	// Reload still finds the live version.
	s2, err := Open(Config{Dir: dir, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := s2.Live("acme"); err != nil || v.ID != 1 {
		t.Fatalf("live after retention reload = %+v, %v", v, err)
	}
}

func TestHostileBlobOnDisk(t *testing.T) {
	p := testPipeline(t, 256, 10)
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seed("acme", p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "acme", "v0000000001.hdfs")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A corrupt header must fail at Open (hard error, like the registry).
	bad := append([]byte(nil), blob...)
	bad[3] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("corrupt header accepted at Open")
	}
	// A corrupt payload passes the header index but must error (never
	// panic) at first materialization.
	bad = append([]byte(nil), blob...)
	bad[len(bad)-5] ^= 0xff
	truncated := bad[:len(bad)-40]
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("header-valid blob rejected at Open: %v", err)
	}
	if _, _, err := s2.Model("acme"); err == nil {
		t.Fatal("truncated payload materialized without error")
	}
}

// gatePipeline trains the fixture the compact store's footprint and
// promote-latency contracts are stated at: a binary face/non-face model at
// D=2048 on sixteen 48x48 crops.
func gatePipeline(tb testing.TB) *hdface.Pipeline {
	tb.Helper()
	r := hv.NewRNG(7 ^ 0x7e4a)
	var imgs []*hdface.Image
	var labels []int
	for i := 0; i < 16; i++ {
		if i%2 == 0 {
			imgs = append(imgs, dataset.RenderFace(48, 48, dataset.Emotion(r.Intn(7)), r))
			labels = append(labels, 1)
		} else {
			imgs = append(imgs, dataset.RenderNonFace(48, 48, r))
			labels = append(labels, 0)
		}
	}
	p := hdface.New(hdface.Config{D: 2048, Seed: 7, Workers: 1, WorkingSize: 48, Stride: 3})
	if err := p.Fit(imgs, labels, 2); err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestBytesPerModelAtD2048 pins the store's footprint contract: a resident
// version is one hdface-model/v2 blob, at most 64 KB at D=2048, because
// the bases are rematerialized from the seed and never stored.
func TestBytesPerModelAtD2048(t *testing.T) {
	p := gatePipeline(t)
	var v2 bytes.Buffer
	if err := hdface.EncodeSnapshotV2(&v2, p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	if n := v2.Len(); n == 0 || n > 64<<10 {
		t.Fatalf("v2 blob is %d bytes at D=%d, want (0, 65536]", n, p.Config().D)
	}
}

// BenchmarkPromote times Store.Promote, one LIVE-file rename plus an atomic
// pointer store, on a persistent store reopened with 128 seeded tenants
// whose live versions are materialized. Each op is a Put and a Promote on
// one tenant, after 20 warm-up ops; p50-ms and p99-ms cover the Promotes
// alone. scripts/check.sh runs it with -benchtime=500x and requires p99
// under 1 ms.
func BenchmarkPromote(b *testing.B) {
	p := gatePipeline(b)
	cfg, m := p.Config(), p.Model()
	dir := b.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	const tenants = 128
	for i := 0; i < tenants; i++ {
		if _, err := s.Seed(fmt.Sprintf("t%04d", i), cfg, m); err != nil {
			b.Fatal(err)
		}
	}
	if s, err = Open(Config{Dir: dir}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < tenants; i++ {
		if _, _, err := s.Model(fmt.Sprintf("t%04d", i)); err != nil {
			b.Fatal(err)
		}
	}
	cycle := func() time.Duration {
		id, err := s.Put("t0000", cfg, m)
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		if err := s.Promote("t0000", id); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	lats := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lats {
		lats[i] = cycle()
	}
	b.StopTimer()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(q float64) float64 { return float64(lats[int(q*float64(len(lats)-1))]) / 1e6 }
	b.ReportMetric(ms(0.50), "p50-ms")
	b.ReportMetric(ms(0.99), "p99-ms")
}
