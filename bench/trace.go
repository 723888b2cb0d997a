package main

import (
	"runtime"
	"time"
)

// span is one bench-local timed call into a layer: name, start and end
// (ns since the tracer started), the enclosing span (-1 for none), the
// replayed request it belongs to, and — for spans opened with allocation
// counting — the heap allocations made inside it. Items counts the units
// of work the call covered (windows, cells, images, sites) where that is
// not one.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Allocs int64  `json:"allocs,omitempty"`
	Items  int64  `json:"items,omitempty"`
}

// tracer records spans in memory. It is not safe for concurrent use: the
// replay calls every traced layer from one goroutine at a time. A disabled
// tracer (on=false) records nothing and costs one branch per call, which
// is how the untraced pass measures the tracer's own overhead.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	open   []int
	counts []bool // per span: allocations are being counted
	req    int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func mallocs() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs)
}

// begin opens a span under the innermost open one and returns its index
// (-1 when the tracer is off). With allocs set it brackets the span with
// runtime.ReadMemStats, a stop-the-world read kept off per-window spans.
func (t *tracer) begin(name string, allocs bool) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	sp := span{Name: name, Parent: parent, Req: t.req}
	if allocs {
		sp.Allocs = mallocs()
	}
	sp.Start = int64(time.Since(t.t0))
	t.spans = append(t.spans, sp)
	t.counts = append(t.counts, allocs)
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	sp := &t.spans[i]
	sp.End = int64(time.Since(t.t0))
	if t.counts[i] {
		sp.Allocs = mallocs() - sp.Allocs
	}
	t.open = t.open[:len(t.open)-1]
}

// items sets span i's work count.
func (t *tracer) items(i int, n int64) {
	if i >= 0 {
		t.spans[i].Items = n
	}
}

// rename relabels span i once its outcome is known.
func (t *tracer) rename(i int, name string) {
	if i >= 0 {
		t.spans[i].Name = name
	}
}

// layerStat aggregates every span of one name.
type layerStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"` // total minus time covered by child spans
	Allocs  int64   `json:"allocs"`
	Items   int64   `json:"items"`
}

// meanUS is the mean span duration in microseconds.
func (l *layerStat) meanUS() float64 { return l.TotalMS * 1000 / float64(l.Count) }

// perItem is total time per unit of work, in microseconds; spans without
// an item count count as one item.
func (l *layerStat) perItemUS() float64 { return l.TotalMS * 1000 / float64(max(l.Items, 1)) }

// layers aggregates the recorded spans by name, with self times.
func (t *tracer) layers() map[string]*layerStat {
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string]*layerStat{}
	for i, sp := range t.spans {
		l := out[sp.Name]
		if l == nil {
			l = &layerStat{}
			out[sp.Name] = l
		}
		d := sp.End - sp.Start
		l.Count++
		l.TotalMS += float64(d) / 1e6
		l.SelfMS += float64(d-child[i]) / 1e6
		l.Allocs += sp.Allocs
		if sp.Items > 0 {
			l.Items += sp.Items
		} else {
			l.Items++
		}
	}
	return out
}
