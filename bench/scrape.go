package main

import (
	"time"

	"hdface/internal/obs/trace"
)

// serverLayers records the daemon's own view of a measured window in trace
// runs: /metrics deltas, span percentiles over the retained /debug/traces
// of the workload's headline kind, and the daemon's CPU. reqs is the number
// of requests (frames, on stream) answered in the window and clientP50 the
// client's p50 send-to-reply time in ms of that kind, so the gap between
// the two is what HTTP, JSON and the loopback add.
func (r *run) serverLayers(w *window, reqs int, clientP50 float64) {
	if !r.rc.Trace {
		return
	}
	secs := w.end.Sub(w.start).Seconds()
	n := float64(max(reqs, 1))
	delta := func(series string) float64 { return w.m1[series] - w.m0[series] }
	stage := func(name string) float64 { return delta(`hdface_stage_seconds_total{stage="` + name + `"}`) }

	r.m.set("serve.batch_size_mean", delta("hdface_serve_batched_images_total")/max(delta("hdface_serve_batches_total"), 1), reqs)
	r.m.set("serve.rejected", delta("hdface_serve_rejected_total"), reqs)
	r.m.set("stage.level_grid_s_per_req", stage("level_grid")/n, reqs)
	r.m.set("stage.detect_sweep_s_per_req", stage("detect_sweep")/n, reqs)
	r.m.set("stage.extract_batch_s_per_req", stage("extract_batch")/n, reqs)
	r.m.set("detect.full_extractions_per_req", delta("hdface_detect_full_extractions_total")/n, reqs)
	r.m.set("stoch.words_per_req", delta("hdface_stoch_kernel_words_total")/n, reqs)
	r.m.set("tenant.materializations", delta("hdface_tenant_materializations_total"), reqs)
	r.m.set("tenant.evictions", delta("hdface_tenant_evictions_total"), reqs)
	r.m.set("tenant.rounds", delta("hdface_tenant_rounds_total"), reqs)
	r.m.set("runtime.gc_pause_ms_per_s", delta("go_gc_pause_seconds_total")*1000/secs, reqs)
	r.m.set("proc.cpu_ms_per_req", ms(w.cpu)/n, reqs)
	r.m.set("gen.cpu_frac", w.selfCPU.Seconds()/secs, 1)

	var total, queue, batch, inference []float64
	for _, t := range w.traces {
		tr := spanTotals(t)
		total = append(total, usMS(t.DurationUS))
		queue = append(queue, usMS(tr["queue_wait"]))
		batch = append(batch, usMS(tr["batch_wait"]))
		inference = append(inference, usMS(t.DurationUS-tr["queue_wait"]-tr["batch_wait"]))
	}
	r.m.set("serve.queue_wait_p99_ms", pct0(queue, 99), len(queue))
	r.m.set("serve.batch_wait_p50_ms", pct0(batch, 50), len(batch))
	r.m.set("serve.inference_p50_ms", pct0(inference, 50), len(inference))
	r.m.set("serve.http_overhead_ms", clientP50-pct0(total, 50), len(total))
}

// spanTotals sums a trace's top-level span durations by name, in µs.
func spanTotals(t trace.ExportTrace) map[string]int64 {
	out := map[string]int64{}
	for _, sp := range t.Spans {
		out[sp.Name] += sp.DurationUS
	}
	return out
}

func usMS(us int64) float64 {
	return float64(time.Duration(us)*time.Microsecond) / float64(time.Millisecond)
}

// pct0 is percentile, reading 0 when there is no sample: a layer the
// workload never reached spent no time.
func pct0(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v, _ := percentile(values, p)
	return v
}
