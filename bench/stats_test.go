package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hdface/internal/hv"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 50, 50},
		{90, 90, 10},
		{99, 99, 1},
		{100, 100, 0},
		{0.5, 1, 99},
	} {
		got, beyond := percentile(vals, c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("p%g = %g with %d beyond, want %g with %d", c.p, got, beyond, c.want, c.wantBeyond)
		}
	}
	if v, _ := percentile([]float64{3, math.Inf(1), 1}, 50); v != 3 {
		t.Errorf("p50 with a failed request = %g, want 3", v)
	}
	if v, _ := percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("p50 of nothing = %g, want NaN", v)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	lat := make([]float64, 99)
	for i := range lat {
		lat[i] = float64(i)
	}
	r := &run{m: metricSet{}}
	r.latencyMetrics(lat) // 99 samples leave 9 beyond p90
	if len(r.invalid) != 1 {
		t.Fatalf("p90 over 99 samples: invalid = %v, want one entry", r.invalid)
	}
	r = &run{m: metricSet{}}
	r.latencyMetrics(append(lat, 99))
	if len(r.invalid) != 0 {
		t.Fatalf("p90 over 100 samples: invalid = %v, want none", r.invalid)
	}
	if got := r.m["tail_ms"]; got.Value != 89 || got.N != 100 {
		t.Errorf("tail_ms = %+v, want 89 over 100", got)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), which external spread checks use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{7, 1, 3}, 1, 7},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(hv.NewRNG(42), 100, 10*time.Second)
	b := poissonSchedule(hv.NewRNG(42), 100, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(hv.NewRNG(43), 100, 10*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) < 850 || len(a) > 1150 {
		t.Errorf("%d arrivals in 10s at 100/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
	}
	short, long := mixedSchedule(7, 5*time.Second), mixedSchedule(7, 10*time.Second)
	if len(short) == 0 || !reflect.DeepEqual(short, long[:len(short)]) {
		t.Fatal("a shorter mixed schedule is not a prefix of a longer one")
	}
}

// TestOpenLoopLateness checks that a slow server shows up in latency from
// the due time, not in the generator's lateness.
func TestOpenLoopLateness(t *testing.T) {
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond}
	res := openLoop(time.Now(), due, 1, func(int) bool {
		time.Sleep(30 * time.Millisecond)
		return true
	})
	for i, l := range res.Late {
		if l > 20*time.Millisecond {
			t.Errorf("arrival %d: generator %v late behind a busy sender", i, l)
		}
	}
	// The last arrival waits for four 30ms requests before its own.
	if res.Lat[4] < 100*time.Millisecond {
		t.Errorf("last latency %v does not include its wait behind the queue", res.Lat[4])
	}
	if res.Svc[4] > res.Lat[4]-50*time.Millisecond {
		t.Errorf("service time %v includes queueing (latency %v)", res.Svc[4], res.Lat[4])
	}

	r := &run{m: metricSet{}}
	r.lateness([]time.Duration{time.Millisecond, 2 * time.Millisecond})
	if len(r.invalid) != 0 {
		t.Errorf("punctual generator marked invalid: %v", r.invalid)
	}
	r.lateness([]time.Duration{time.Millisecond, 20 * time.Millisecond})
	if len(r.invalid) != 1 {
		t.Errorf("20ms-late generator: invalid = %v, want one entry", r.invalid)
	}
}

// TestClosedLoopCountsFailuresAsMisses checks that a request that fails
// fast neither adds to throughput nor pulls latency down: it counts as +Inf.
func TestClosedLoopCountsFailuresAsMisses(t *testing.T) {
	res := closedLoop(200*time.Millisecond, 2, func(i int) bool {
		if i%2 == 1 {
			return false // refused at once
		}
		time.Sleep(5 * time.Millisecond)
		return true
	})
	inf := 0
	for _, l := range res.Lat {
		if math.IsInf(l, 1) {
			inf++
		}
	}
	if res.Done == 0 || inf == 0 {
		t.Fatalf("done %d, failed latencies %d: want both", res.Done, inf)
	}
	if res.Done+inf != len(res.Lat) {
		t.Errorf("%d latencies for %d successes and %d failures", len(res.Lat), res.Done, inf)
	}
	if res.Failed < inf || res.Sent < len(res.Lat) {
		t.Errorf("sent %d failed %d, but %d completed and %d failed in the window", res.Sent, res.Failed, len(res.Lat), inf)
	}
	if p50, _ := percentile(res.Lat, 50); p50 < 5 {
		t.Errorf("p50 %.2fms: fast failures pulled the latency below the 5ms service time", p50)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 100, 101, 99}
	scale := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * k
		}
		return out
	}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"within bound", scale(1.05), false, verdictOK},
		{"slower", scale(1.2), false, verdictRegressed},
		{"faster", scale(0.8), false, verdictOK},
		{"fewer per second", scale(0.8), true, verdictRegressed},
		{"more per second", scale(1.2), true, verdictOK},
		{"noisy", []float64{60, 140, 100, 80, 120, 100, 70, 130, 100, 100}, false, verdictUnresolved},
		{"noisy but all better", []float64{10, 30, 20, 15, 25, 20, 12, 28, 20, 20}, false, verdictOK},
	} {
		if got, _, _ := verdict(base, c.b, c.higher, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFiles runs compare over result files in two directories and
// checks that a regression fails it.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(set string, seed int, p50 float64) string {
		m := metricSet{}
		m.set("setup_s", 0.05, 3)
		m.set("throughput", 100, 100)
		m.set("p50_ms", p50, 100)
		m.set("tail_ms", 3*p50, 100)
		m.set("server_rss_mb", 20, 1)
		b, err := json.Marshal(resultFile{Schema: resultSchema, Workload: "predict", Correct: true,
			Attempted: 100, Env: envBlock{Seed: uint64(seed)}, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, set, "result-"+string(rune('a'+seed))+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var a, same, slow []string
	for s := 0; s < 3; s++ {
		a = append(a, write("a", s, 10+0.01*float64(s)))
		same = append(same, write("same", s, 10+0.01*float64(s)))
		slow = append(slow, write("slow", s, 20+0.01*float64(s)))
	}
	var out strings.Builder
	ok, err := compare(&out, append(append([]string{}, a...), same...))
	if err != nil || !ok {
		t.Fatalf("identical sets: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = compare(&out, append(append([]string{}, a...), slow...))
	if err != nil || ok {
		t.Fatalf("doubled p50: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "p50_ms") || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("no regressed p50_ms row:\n%s", out.String())
	}
	if _, err := compare(&out, a); err == nil {
		t.Error("compare accepted a single set")
	}
}
