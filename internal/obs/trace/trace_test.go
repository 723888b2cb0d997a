package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// resetAll returns the package to its default (disabled, empty) state.
func resetAll() {
	Disable()
	Reset()
}

func TestDisabledReturnsNil(t *testing.T) {
	resetAll()
	if tr := New("predict", ""); tr != nil {
		t.Fatalf("New with tracing disabled = %v, want nil", tr)
	}
}

// TestDisabledPathAllocFree pins the disabled instrumentation path at
// zero allocations: the serving hot path runs it on every request, so a
// single stray allocation here is a per-request regression.
func TestDisabledPathAllocFree(t *testing.T) {
	resetAll()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		tr := New("predict", "")
		c := NewContext(ctx, tr)
		c2, sp := StartSpan(c, "stage")
		sp.SetAttr("k", "v")
		sp.End()
		_ = FromContext(c2)
		tr.SetError(false)
		tr.SetDegraded(false)
		tr.Finish()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.1f/op, want 0", allocs)
	}
}

func TestNilSafety(t *testing.T) {
	resetAll()
	var tr *Trace
	var sp *Span
	// None of these may panic.
	_ = tr.ID()
	_ = tr.Duration()
	tr.SetError(true)
	tr.SetDegraded(true)
	tr.SetAttr("k", "v")
	tr.Finish()
	_ = tr.StartSpan("x")
	_ = tr.AddSpan("x", time.Now(), time.Now())
	sp.End()
	sp.SetAttr("k", "v")
	sp.SetAttrInt("k", 1)
	_ = sp.StartSpan("x")
	_ = sp.AddSpan("x", time.Now(), time.Now())
}

func TestInboundID(t *testing.T) {
	resetAll()
	Enable()
	defer resetAll()
	cases := []struct {
		inbound string
		honour  bool
	}{
		{"router-7f.leg:2", true},
		{"0123456789abcdef", true},
		{"", false},
		{"has space", false},
		{"semi;colon", false},
		{strings.Repeat("a", maxInboundID), true},
		{strings.Repeat("a", maxInboundID+1), false},
	}
	for _, c := range cases {
		tr := New("predict", c.inbound)
		if c.honour && tr.ID() != c.inbound {
			t.Errorf("inbound %q not honoured: got %q", c.inbound, tr.ID())
		}
		if !c.honour && tr.ID() == c.inbound {
			t.Errorf("inbound %q should have been replaced", c.inbound)
		}
		if got := tr.ID(); len(got) == 0 || len(got) > maxInboundID {
			t.Errorf("inbound %q: bad ID %q", c.inbound, got)
		}
	}
}

func TestContextNesting(t *testing.T) {
	resetAll()
	Enable()
	defer resetAll()
	tr := New("detect", "")
	ctx := NewContext(context.Background(), tr)
	ctx1, outer := StartSpan(ctx, "outer")
	_, inner := StartSpan(ctx1, "inner")
	inner.End()
	outer.End()
	tr.Finish()

	exp := Snapshot(Filter{Kind: "detect", Limit: 1})
	if len(exp.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(exp.Traces))
	}
	spans := exp.Traces[0].Spans
	if len(spans) != 1 || spans[0].Name != "outer" {
		t.Fatalf("top-level spans = %+v, want one %q", spans, "outer")
	}
	if len(spans[0].Children) != 1 || spans[0].Children[0].Name != "inner" {
		t.Fatalf("outer children = %+v, want one %q", spans[0].Children, "inner")
	}
}

// TestGoldenExport pins the hdface-trace/v1 JSON schema byte-for-byte,
// using the timeNow hook for a deterministic clock. Tooling parses this
// format (EXPERIMENTS.md documents it); an accidental field rename or
// unit change must fail loudly here.
func TestGoldenExport(t *testing.T) {
	resetAll()
	Enable()
	defer func() { timeNow = time.Now; resetAll() }()

	base := time.Unix(1700000000, 0).UTC()
	now := base
	timeNow = func() time.Time { return now }

	tr := New("detect", "golden-test")
	tr.SetAttr("degraded", "true")
	tr.SetDegraded(true)
	lv := tr.AddSpan("level", base.Add(1*time.Millisecond), base.Add(3*time.Millisecond))
	lv.SetAttrInt("windows", 42)
	sc := tr.AddSpan("score", base.Add(3*time.Millisecond), base.Add(9*time.Millisecond))
	sc.AddSpan("window_batch", base.Add(3*time.Millisecond), base.Add(4*time.Millisecond))
	now = base.Add(10 * time.Millisecond)
	tr.Finish()

	got, err := json.Marshal(Last(1))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"schema":"hdface-trace/v1","traces":[{"trace_id":"golden-test","kind":"detect",` +
		`"start_unix_nano":1700000000000000000,"duration_us":10000,"degraded":true,` +
		`"attrs":{"degraded":"true"},"spans":[` +
		`{"name":"level","start_us":1000,"duration_us":2000,"attrs":{"windows":"42"}},` +
		`{"name":"score","start_us":3000,"duration_us":6000,"children":[` +
		`{"name":"window_batch","start_us":3000,"duration_us":1000}]}]}]}`
	if string(got) != want {
		t.Fatalf("hdface-trace/v1 export drifted:\n got: %s\nwant: %s", got, want)
	}
}

func TestFinishIdempotentAndClosesOpenSpans(t *testing.T) {
	resetAll()
	Enable()
	defer resetAll()
	tr := New("predict", "")
	sp := tr.StartSpan("left-open")
	_ = sp
	tr.Finish()
	d := tr.Duration()
	if d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	tr.Finish() // second call must not re-collect
	exp := Last(10)
	n := 0
	for _, et := range exp.Traces {
		if et.TraceID == tr.ID() {
			n++
			if len(et.Spans) != 1 {
				t.Fatalf("spans = %d, want 1", len(et.Spans))
			}
			if et.Spans[0].StartUS+et.Spans[0].DurationUS > int64(d/time.Microsecond) {
				t.Fatalf("open span not clamped to trace end: %+v (trace %v)", et.Spans[0], d)
			}
		}
	}
	if n != 1 {
		t.Fatalf("trace collected %d times, want 1", n)
	}
}

// TestTailRetention drives the collector far past the recent ring's
// capacity and asserts the tail policy: the slowest trace and the
// error/degraded traces survive a flood of fast, healthy traffic.
func TestTailRetention(t *testing.T) {
	resetAll()
	Enable()
	defer func() { timeNow = time.Now; resetAll() }()

	base := time.Unix(1700000000, 0).UTC()
	now := base
	timeNow = func() time.Time { return now }

	mk := func(id string, dur time.Duration, errFlag, degraded bool) {
		now = now.Add(time.Millisecond) // distinct, increasing start times
		tr := New("predict", id)
		start := now
		tr.SetError(errFlag)
		tr.SetDegraded(degraded)
		now = start.Add(dur)
		tr.Finish()
	}

	mk("slowpoke", time.Second, false, false)
	mk("broken", time.Millisecond, true, false)
	mk("budget-blown", time.Millisecond, false, true)
	for i := 0; i < recentCap+16; i++ {
		mk(fmt.Sprintf("fast-%d", i), time.Microsecond, false, false)
	}

	recent := Snapshot(Filter{Limit: recentCap * 2})
	for _, et := range recent.Traces {
		if et.TraceID == "slowpoke" || et.TraceID == "broken" || et.TraceID == "budget-blown" {
			t.Fatalf("%s still in recent ring; flood too small for the test to mean anything", et.TraceID)
		}
	}

	find := func(exp Export, id string) bool {
		for _, et := range exp.Traces {
			if et.TraceID == id {
				return true
			}
		}
		return false
	}
	if exp := Snapshot(Filter{Slow: true}); !find(exp, "slowpoke") {
		t.Fatalf("slowest trace evicted by fast flood; retained: %d", len(exp.Traces))
	}
	if exp := Snapshot(Filter{Errors: true}); !find(exp, "broken") || find(exp, "budget-blown") {
		t.Fatalf("error filter wrong: %+v", exp.Traces)
	}
	if exp := Snapshot(Filter{Degraded: true}); !find(exp, "budget-blown") || find(exp, "broken") {
		t.Fatalf("degraded filter wrong")
	}
	if exp := Snapshot(Filter{Errors: true, Degraded: true}); !find(exp, "broken") || !find(exp, "budget-blown") {
		t.Fatalf("union filter wrong")
	}
}

func TestSnapshotFilters(t *testing.T) {
	resetAll()
	Enable()
	defer resetAll()

	tr := New("detect", "with-stage")
	sp := tr.StartSpan("detect_sweep")
	sp.StartSpan("level").End()
	sp.End()
	tr.Finish()
	tr2 := New("predict", "no-stage")
	tr2.Finish()

	if exp := Snapshot(Filter{Kind: "detect"}); len(exp.Traces) != 1 || exp.Traces[0].TraceID != "with-stage" {
		t.Fatalf("kind filter: %+v", exp.Traces)
	}
	if exp := Snapshot(Filter{Stage: "level"}); len(exp.Traces) != 1 || exp.Traces[0].TraceID != "with-stage" {
		t.Fatalf("stage filter should match nested spans: %+v", exp.Traces)
	}
	if exp := Snapshot(Filter{Stage: "nope"}); len(exp.Traces) != 0 {
		t.Fatalf("bogus stage matched: %+v", exp.Traces)
	}
	if exp := Snapshot(Filter{Limit: 1}); len(exp.Traces) != 1 || exp.Traces[0].TraceID != "no-stage" {
		t.Fatalf("limit should keep newest first: %+v", exp.Traces)
	}
}

// TestConcurrentHammer races trace creation, annotation from multiple
// goroutines per trace, collection, snapshotting and reset. Run with
// -race; the assertions only check it survives with sane output.
func TestConcurrentHammer(t *testing.T) {
	resetAll()
	Enable()
	defer resetAll()

	const traces = 200
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < traces; i++ {
				tr := New("hammer", "")
				ctx := NewContext(context.Background(), tr)
				var inner sync.WaitGroup
				for w := 0; w < 3; w++ {
					inner.Add(1)
					go func(w int) {
						defer inner.Done()
						_, sp := StartSpan(ctx, "stage")
						sp.SetAttrInt("worker", int64(w))
						sp.StartSpan("child").End()
						sp.End()
					}(w)
				}
				inner.Wait()
				if i%7 == 0 {
					tr.SetError(true)
				}
				tr.Finish()
				if i%13 == 0 {
					_ = Snapshot(Filter{Errors: true, Limit: 8})
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			exp := Last(32)
			if exp.Schema != ExportSchema {
				t.Fatalf("schema %q", exp.Schema)
			}
			for _, et := range exp.Traces {
				for _, sp := range et.Spans {
					if sp.Name != "stage" {
						t.Fatalf("unexpected span %q", sp.Name)
					}
				}
			}
			return
		default:
			_ = Last(4)
		}
	}
}
