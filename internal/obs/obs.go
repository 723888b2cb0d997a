// Package obs is the observability layer of the HDFace reproduction: a
// zero-dependency, concurrency-safe registry of counters, gauges and
// fixed-bucket histograms, plus a stage-span tracer (span.go) that records
// per-stage wall time, item counts and optional allocation deltas.
//
// The layer is off by default. Every recording entry point first loads a
// single atomic flag and returns immediately when instrumentation is
// disabled, so packages can instrument their hot paths unconditionally:
// the disabled fast path is branch-plus-atomic-load cheap and allocation
// free (asserted by the regression tests). Enable it once at process
// startup (the CLI's -stats family of flags does this) and read the state
// back three ways:
//
//   - TakeSnapshot returns a typed, JSON-serialisable Snapshot,
//   - WriteTo emits Prometheus text exposition format,
//   - Snapshot.WriteReport prints the human per-stage report behind the
//     CLI's -stats flag.
//
// Metric handles are created once at package init via NewCounter /
// NewGauge / NewHistogram; creation is idempotent by name, so two packages
// naming the same series share one handle. Names follow Prometheus
// conventions and may embed a fixed label set ("x_total{op=\"mul\"}"),
// which the exposition writer folds into proper families.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// armed is the global on/off switch; it gates every recording fast path.
var armed atomic.Bool

// Enable turns instrumentation on process-wide.
func Enable() { armed.Store(true) }

// Disable turns instrumentation off process-wide. Existing values are
// retained (use Reset to clear them).
func Disable() { armed.Store(false) }

// registry is the process-global metric store. Handles register at package
// init and live for the process lifetime; Reset zeroes values but never
// invalidates handles.
type registry struct {
	mu      sync.RWMutex
	counts  map[string]*Counter
	gauges  map[string]*Gauge
	hists   map[string]*Histogram
	stages  map[string]*Stage
	rollers map[string]*RollingQuantile
	slos    map[string]*SLO
}

var reg = &registry{
	counts:  make(map[string]*Counter),
	gauges:  make(map[string]*Gauge),
	hists:   make(map[string]*Histogram),
	stages:  make(map[string]*Stage),
	rollers: make(map[string]*RollingQuantile),
	slos:    make(map[string]*SLO),
}

// Counter is a monotonically increasing atomic counter. A nil *Counter is
// a valid no-op receiver.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter returns the counter registered under name, creating it on
// first use. help documents the series in the Prometheus exposition.
func NewCounter(name, help string) *Counter {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if c, ok := reg.counts[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	reg.counts[name] = c
	return c
}

// Add increments the counter by n when instrumentation is enabled.
func (c *Counter) Add(n int64) {
	if c == nil || !armed.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one when instrumentation is enabled.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value. A nil *Gauge is a valid
// no-op receiver.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// NewGauge returns the gauge registered under name, creating it on first
// use.
func NewGauge(name, help string) *Gauge {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if g, ok := reg.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	reg.gauges[name] = g
	return g
}

// Set stores v when instrumentation is enabled.
func (g *Gauge) Set(v float64) {
	if g == nil || !armed.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts —
// cheap enough for hot paths (a binary search plus two atomic adds per
// observation). Bounds are inclusive upper bounds; an implicit +Inf bucket
// catches overflow. A nil *Histogram is a valid no-op receiver.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Int64 // len(bounds)+1; last is +Inf
	count      atomic.Int64
	sumBits    atomic.Uint64 // float64 bits, updated by CAS
}

// LatencyBuckets are the default span/latency bounds in seconds, spanning
// microsecond feature ops to minute-scale training runs.
var LatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// SizeBuckets are default bounds for count-valued histograms (windows per
// sweep, items per batch).
var SizeBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000, 10000}

// NewHistogram returns the histogram registered under name, creating it
// with the given ascending upper bounds on first use (nil bounds selects
// LatencyBuckets).
func NewHistogram(name, help string, bounds []float64) *Histogram {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if h, ok := reg.hists[name]; ok {
		return h
	}
	if bounds == nil {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	reg.hists[name] = h
	return h
}

// Observe records v when instrumentation is enabled.
func (h *Histogram) Observe(v float64) {
	if h == nil || !armed.Load() {
		return
	}
	h.observe(v)
}

func (h *Histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, or +Inf slot
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations recorded.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Reset zeroes every registered counter, gauge and histogram and clears
// all stage records. Metric handles stay valid, so instrumented packages
// keep working; only the accumulated values are dropped. Intended for the
// CLI (separating a warm-up phase from a measured phase) and for tests.
func Reset() {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, c := range reg.counts {
		c.v.Store(0)
	}
	for _, g := range reg.gauges {
		g.bits.Store(0)
	}
	for _, h := range reg.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sumBits.Store(0)
	}
	for _, r := range reg.rollers {
		r.reset()
	}
	for _, s := range reg.slos {
		s.reset()
	}
	reg.stages = make(map[string]*Stage)
}
