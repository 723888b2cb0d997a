package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

type specMetric struct{ Name, Unit string }

// benchmarkJSON reads the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) (root string, spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}) {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return root, spec
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog and
// BENCHMARK.json naming the same metrics with the same units, in order.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	_, spec := benchmarkJSON(t)
	for _, c := range []struct {
		k    kind
		want []specMetric
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		var got []specMetric
		for _, d := range catalog {
			if d.kind == c.k {
				got = append(got, specMetric{d.name, d.unit})
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("catalog kind %d:\n got %v\nwant %v", c.k, got, c.want)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
}

// TestSmokeAllWorkloads runs every workload for one second against a D=512
// daemon, traced, and checks that each emits every BENCHMARK.json metric
// with a unit and a finite value and passes every output check. One second
// is too short for the sample-count gates, so those may mark a run invalid.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon")
	}
	root, spec := benchmarkJSON(t)
	out := t.TempDir()
	res, err := benchmark(root, out, workloads, 1, time.Second, true, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if len(r.problems) != 0 {
			t.Errorf("%s: output checks failed: %v", r.rc.Workload, r.problems)
		}
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			v, ok := r.m[m.Name]
			if !ok || v.Unit == "" || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v)", r.rc.Workload, m.Name, v, ok)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+r.rc.Workload+".json")); err != nil {
			t.Errorf("%s: %v", r.rc.Workload, err)
		}
		checkSummaryLine(t, r, false, spec.EndToEnd)
		checkSummaryLine(t, r, true, spec.PerLayer)
	}
}

// checkSummaryLine holds the result line of a one-workload run to its
// format: exactly correct, attempted, failed and metrics, and every metric
// of want as exactly a value and its unit.
func checkSummaryLine(t *testing.T, r *run, traced bool, want []specMetric) {
	t.Helper()
	line, _ := summaryLine([]*run{r}, traced)
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("%s: result line %q: %v", r.rc.Workload, line, err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("%s: result line keys %v", r.rc.Workload, keys)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatalf("%s: metrics: %v", r.rc.Workload, err)
	}
	if len(metrics) != len(want) {
		t.Errorf("%s traced=%v: %d metrics in the result line, want %d", r.rc.Workload, traced, len(metrics), len(want))
	}
	for _, m := range want {
		v := metrics[m.Name]
		if _, isNum := v["value"].(float64); len(v) != 2 || !isNum || v["unit"] != m.Unit {
			t.Errorf("%s: result line metric %s = %v, want only a value and unit %q", r.rc.Workload, m.Name, v, m.Unit)
		}
	}
}
