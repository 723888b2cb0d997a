package main

import (
	"fmt"
	"math"
	"sort"
)

// kind says where a metric is reported. End-to-end metrics are measured on
// the running daemon with no bench tracing and carry regression bounds in
// BENCHMARK.json; per-layer metrics come from the traced replay and from
// the daemon's own counters; diagnostics are printed and stored in the
// result file but are not part of the BENCHMARK.json contract (most are
// zero or undefined on some workloads).
type kind int

const (
	endToEnd kind = iota
	perLayer
	diagnostic
)

type metricDef struct {
	name string
	unit string
	kind kind
}

// catalog lists every metric the benchmark emits. Every workload emits
// every end-to-end and per-layer metric; see README.md for what each one
// measures on each workload. The end-to-end and per-layer entries are
// those of BENCHMARK.json, in its order and with its units.
var catalog = []metricDef{
	{"setup_s", "s", endToEnd},
	{"throughput", "1/s", endToEnd},
	{"p50_ms", "ms", endToEnd},
	{"tail_ms", "ms", endToEnd},
	{"server_rss_mb", "MiB", endToEnd},

	{"imgproc.decode_us", "us", perLayer},
	{"imgproc.pyramid_us", "us", perLayer},
	{"hdface.extract_ms", "ms", perLayer},
	{"hdface.extract_allocs", "count", perLayer},
	{"hdface.score_us_per_window", "us", perLayer},
	{"hdface.score_fused_us_per_window", "us", perLayer},
	{"hdface.appearance_ms_per_box", "ms", perLayer},
	{"hdface.load_snapshot_ms", "ms", perLayer},
	{"hdface.scorer_build_ms", "ms", perLayer},
	{"hdhog.gradient_ns", "ns", perLayer},
	{"hdhog.magnitude_ns", "ns", perLayer},
	{"hdhog.bin_ns", "ns", perLayer},
	{"hdhog.site_allocs", "count", perLayer},
	{"hdhog.sites_per_req", "count", perLayer},
	{"hdhog.cell_hist_ms", "ms", perLayer},
	{"hdhog.bundle_ms", "ms", perLayer},
	{"hdhog.level_grid_ms", "ms", perLayer},
	{"hdhog.level_grid_allocs_per_cell", "count", perLayer},
	{"hdhog.level_grid_w2_speedup", "x", perLayer},
	{"detect.sweep_ms", "ms", perLayer},
	{"detect.windows_per_req", "count", perLayer},
	{"detect.hit_frac", "frac", perLayer},
	{"detect.nms_us", "us", perLayer},
	{"detect.coverage", "frac", perLayer},
	{"detect.boxes_per_frame", "count", perLayer},
	{"detect.full_extractions_per_req", "count", perLayer},
	{"track.step_us", "us", perLayer},
	{"hv.emotion_bundle_us", "us", perLayer},
	{"hdc.scores_us", "us", perLayer},
	{"tenant.model_hit_us", "us", perLayer},
	{"tenant.model_miss_us", "us", perLayer},
	{"tenant.miss_frac", "frac", perLayer},
	{"tenant.feedback_us", "us", perLayer},
	{"tenant.round_ms", "ms", perLayer},
	{"tenant.materializations", "count", perLayer},
	{"tenant.evictions", "count", perLayer},
	{"tenant.rounds", "count", perLayer},
	{"serve.batch_size_mean", "count", perLayer},
	{"serve.batch_wait_p50_ms", "ms", perLayer},
	{"serve.inference_p50_ms", "ms", perLayer},
	{"serve.http_overhead_ms", "ms", perLayer},
	{"serve.queue_wait_p99_ms", "ms", perLayer},
	{"serve.rejected", "count", perLayer},
	{"stage.level_grid_s_per_req", "s", perLayer},
	{"stage.detect_sweep_s_per_req", "s", perLayer},
	{"stage.extract_batch_s_per_req", "s", perLayer},
	{"stoch.words_per_req", "count", perLayer},
	{"runtime.gc_pause_ms_per_s", "ms/s", perLayer},
	{"proc.cpu_ms_per_req", "ms", perLayer},
	{"gen.cpu_frac", "frac", perLayer},
	{"bench.trace_overhead_frac", "frac", perLayer},

	{"fixture_s", "s", diagnostic},
	{"accuracy", "frac", diagnostic},
	{"detect_f1", "frac", diagnostic},
	{"stream_idf1", "frac", diagnostic},
	{"failed_frac", "frac", diagnostic},
	{"degraded_frac", "frac", diagnostic},
	{"feedback_p95_ms", "ms", diagnostic},
	{"gen.late_p99_ms", "ms", diagnostic},
}

func lookup(name string) metricDef {
	for _, d := range catalog {
		if d.name == name {
			return d
		}
	}
	panic("bench: metric not in catalog: " + name)
}

// metric is one reported value: N is the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet holds a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, n int) {
	m[name] = metric{Value: v, Unit: lookup(name).unit, N: n}
}

// ofKind returns the subset of m whose catalog kind is k.
func (m metricSet) ofKind(k kind) metricSet {
	out := metricSet{}
	for name, v := range m {
		if lookup(name).kind == k {
			out[name] = v
		}
	}
	return out
}

// missing lists catalog metrics of kind k absent from m or not finite.
func (m metricSet) missing(k kind) []string {
	var out []string
	for _, d := range catalog {
		if d.kind != k {
			continue
		}
		v, ok := m[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			out = append(out, d.name)
		}
	}
	return out
}

// lines renders m as "<workload> <metric> <value> <unit> n=<samples>",
// sorted by name.
func (m metricSet) lines(workload string) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		v := m[n]
		out[i] = fmt.Sprintf("%s %s %.6g %s n=%d", workload, n, v.Value, v.Unit, v.N)
	}
	return out
}
