// Package trace is the per-request tracer of the observability layer: a
// zero-dependency span-tree recorder that answers the question the
// aggregate metrics in internal/obs cannot — "why was *this* request
// slow?". A Trace is minted at request ingress (honouring an inbound
// X-Hdface-Trace header, so an upstream router can stitch fan-out legs
// together), threaded through the serving stack via context.Context, and
// closed with Finish, which hands it to a process-global collector with
// tail-based retention: alongside a ring of recent traces, the collector
// always keeps the slowest traces and the error/degraded traces, so the
// interesting tail survives being flooded by fast, healthy requests.
//
// Like the rest of obs, the package is off by default and the disabled
// path is allocation free: New returns nil, every method is nil-safe, and
// NewContext returns its input context untouched, so callers instrument
// unconditionally:
//
//	tr := trace.New("detect", r.Header.Get(trace.Header))
//	ctx = trace.NewContext(ctx, tr)
//	...
//	tr.SetDegraded(stats.Degraded)
//	tr.Finish()
//
// Tracing never alters computation — spans only observe — so properties
// like N-worker byte-identity of detection output hold with tracing on
// (asserted by the detect package's tests).
package trace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hdface/internal/obs"
)

// Header is the HTTP header that carries a trace ID inbound (a router
// propagating its own ID to a replica) and outbound (the ID minted for
// the response).
const Header = "X-Hdface-Trace"

// maxInboundID bounds accepted inbound trace IDs; longer or malformed
// IDs are replaced by a freshly minted one rather than rejected.
const maxInboundID = 64

// armed is the package on/off switch, separate from obs's so snapshots can
// run without the tracer and vice versa. The serve daemon arms both.
var armed atomic.Bool

// Enable turns tracing on process-wide.
func Enable() { armed.Store(true) }

// Disable turns tracing off. Already-collected traces are retained (use
// Reset to drop them); in-flight traces keep recording until finished.
func Disable() { armed.Store(false) }

// timeNow is swapped by tests for deterministic golden output.
var timeNow = time.Now

// Tracer activity counters (recorded through obs, so they ride the same
// /metrics surface as everything else).
var (
	obsStarted  = obs.NewCounter("hdface_trace_started_total", "traces minted")
	obsFinished = obs.NewCounter("hdface_trace_finished_total", "traces finished and offered to the collector")
	obsInbound  = obs.NewCounter("hdface_trace_inherited_total", "traces that honoured an inbound X-Hdface-Trace ID")
)

// Attr is one key/value annotation on a span or trace.
type Attr struct {
	K, V string
}

// Span is one timed region inside a trace. Spans form a tree; all
// mutation locks the owning trace, so spans may be created and annotated
// from any goroutine. A nil *Span is a valid no-op receiver.
type Span struct {
	name       string
	start, end time.Duration // offsets from the trace start; end==0 means open
	attrs      []Attr
	children   []*Span
	t          *Trace
}

// Trace is one request's span tree plus its terminal status flags. Create
// with New, thread with NewContext/FromContext, close with Finish.
type Trace struct {
	id    string
	kind  string
	start time.Time

	mu       sync.Mutex
	root     Span
	err      bool
	degraded bool
	finished bool
	dur      time.Duration
}

// seq feeds the ID minter.
var seq atomic.Uint64

// mintID returns a 16-hex-digit process-unique trace ID. The sequence
// number keeps IDs unique even when the clock stalls; the splitmix64
// finaliser spreads them so IDs from different processes rarely collide.
func mintID() string {
	x := seq.Add(1)*0x9e3779b97f4a7c15 + uint64(timeNow().UnixNano())
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return fmt.Sprintf("%016x", x)
}

// validID reports whether an inbound ID is safe to echo: non-empty,
// bounded, and limited to URL- and log-safe characters.
func validID(id string) bool {
	if id == "" || len(id) > maxInboundID {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return false
		}
	}
	return true
}

// New mints a trace of the given kind ("predict", "detect",
// "online_round", ...). inbound, when well-formed, becomes the trace's ID
// — the hook that lets an upstream router correlate its fan-out. New
// returns nil when tracing is disabled; every Trace and Span method is
// nil-safe, so callers never branch.
func New(kind, inbound string) *Trace {
	if !armed.Load() {
		return nil
	}
	t := &Trace{kind: kind, start: timeNow()}
	if validID(inbound) {
		t.id = inbound
		obsInbound.Inc()
	} else {
		t.id = mintID()
	}
	obsStarted.Inc()
	return t
}

// ID returns the trace ID, or "" for a nil trace.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetError marks the trace as failed; error traces are retained by the
// collector's tail-based policy regardless of how fast they were.
func (t *Trace) SetError(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.err = on
	t.mu.Unlock()
}

// SetDegraded marks the trace as degraded (an anytime sweep that ran out
// of budget); degraded traces are retained like errors.
func (t *Trace) SetDegraded(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.degraded = on
	t.mu.Unlock()
}

// SetAttr annotates the trace itself (the root of the span tree).
func (t *Trace) SetAttr(k, v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.root.attrs = append(t.root.attrs, Attr{k, v})
	t.mu.Unlock()
}

// StartSpan opens a top-level span. Close it with End.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(&t.root, name, timeNow().Sub(t.start), 0)
}

// AddSpan records a top-level span retroactively from explicit wall-clock
// bounds — the shape used for phases whose boundaries are only known
// after the fact (queue wait measured at dequeue, the parallel scoring
// region of a sweep).
func (t *Trace) AddSpan(name string, start, end time.Time) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(&t.root, name, start.Sub(t.start), end.Sub(t.start))
}

// newSpan appends a child under parent. A zero end leaves the span open.
func (t *Trace) newSpan(parent *Span, name string, start, end time.Duration) *Span {
	s := &Span{name: name, start: start, end: end, t: t}
	t.mu.Lock()
	parent.children = append(parent.children, s)
	t.mu.Unlock()
	return s
}

// StartSpan opens a child span under s.
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.newSpan(s, name, timeNow().Sub(s.t.start), 0)
}

// AddSpan records a child span retroactively from explicit bounds.
func (s *Span) AddSpan(name string, start, end time.Time) *Span {
	if s == nil {
		return nil
	}
	return s.t.newSpan(s, name, start.Sub(s.t.start), end.Sub(s.t.start))
}

// End closes the span. Ending an already-closed span is a no-op, and
// spans still open when the trace finishes are closed at the trace end.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := timeNow().Sub(s.t.start)
	s.t.mu.Lock()
	if s.end == 0 {
		s.end = now
	}
	s.t.mu.Unlock()
}

// SetAttr annotates the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, Attr{k, v})
	s.t.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(k string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(k, fmt.Sprintf("%d", v))
}

// closeOpen closes every still-open span in the subtree at the trace's
// final duration. Called with t.mu held.
func closeOpen(s *Span, end time.Duration) {
	if s.end == 0 {
		s.end = end
	}
	for _, c := range s.children {
		closeOpen(c, end)
	}
}

// Finish seals the trace — its duration is fixed, open spans are closed —
// and offers it to the collector, which applies tail-based retention.
// Finish is idempotent; only the first call collects.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	t.dur = timeNow().Sub(t.start)
	t.root.end = t.dur
	closeOpen(&t.root, t.dur)
	t.mu.Unlock()
	col.add(t)
	obsFinished.Inc()
}

// Duration returns the trace's final duration (zero until Finish).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dur
}

// ctxKey keys the context value; carrying a tiny struct of (trace,
// current span) lets StartSpan nest naturally down a call tree.
type ctxKey struct{}

type ctxVal struct {
	t *Trace
	s *Span // current parent; nil means the trace root
}

// NewContext returns ctx carrying the trace. A nil trace returns ctx
// unchanged (no allocation), keeping the disabled path free.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{t: t})
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	if v, ok := ctx.Value(ctxKey{}).(ctxVal); ok {
		return v.t
	}
	return nil
}

// StartSpan opens a span under the context's current span (or the trace
// root) and returns a context under which further StartSpan calls nest
// inside it. With no trace in ctx it returns (ctx, nil) untouched.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		return ctx, nil
	}
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok || v.t == nil {
		return ctx, nil
	}
	var sp *Span
	if v.s != nil {
		sp = v.s.StartSpan(name)
	} else {
		sp = v.t.StartSpan(name)
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{t: v.t, s: sp}), sp
}
