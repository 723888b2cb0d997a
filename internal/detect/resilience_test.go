package detect

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdface/internal/imgproc"
)

// texturedImage returns a 256x256 image with banded texture so window hashes
// differ — big enough that every level has far more windows than cancelBatch.
func texturedImage() *imgproc.Image {
	img := imgproc.NewImage(256, 256)
	for y := 0; y < img.H; y += 4 {
		img.FillRect(0, y, img.W, y+2, uint8(y))
	}
	return img
}

var resilienceParams = Params{Win: 32, Stride: 16, Scales: []float64{1, 1.5, 2}, NMSIoU: -1}

func TestSweepPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	boxes, stats, err := Sweep(ctx, texturedImage(), &stubScorer{}, resilienceParams)
	if err != nil {
		t.Fatalf("anytime contract broken: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-cancelled sweep took %v", elapsed)
	}
	if !stats.Degraded {
		t.Fatalf("pre-cancelled sweep not degraded: %+v", stats)
	}
	if stats.CompletedWindows != 0 || len(boxes) != 0 {
		t.Fatalf("pre-cancelled sweep scored windows: %d completed, %d boxes",
			stats.CompletedWindows, len(boxes))
	}
	// The window inventory is still reported so callers can see what was
	// missed.
	if stats.Windows == 0 || stats.Levels != 3 {
		t.Fatalf("stats should still describe the pyramid: %+v", stats)
	}
}

func TestSweepCancelledMidSweepIsCoarseFirst(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var scored int64
	s := Scorer(func(win *imgproc.Image) (bool, float64) {
		if n := atomic.AddInt64(&scored, 1); n == 5 {
			cancel()
		} else if n > 5 {
			// Slow down once cancelled so the watcher goroutine reliably
			// flags the stop before the next batch-boundary check.
			time.Sleep(time.Millisecond)
		}
		return true, win.Mean()
	})
	boxes, stats, err := Sweep(ctx, texturedImage(), s, resilienceParams)
	if err != nil {
		t.Fatalf("anytime contract broken: %v", err)
	}
	if !stats.Degraded {
		t.Fatalf("mid-sweep cancel not degraded: %+v", stats)
	}
	if stats.CompletedWindows == 0 || stats.CompletedWindows >= stats.Windows {
		t.Fatalf("expected a partial sweep: %d/%d windows",
			stats.CompletedWindows, stats.Windows)
	}
	// Cancellation is polled once per cancelBatch windows on one worker, so
	// the overshoot past the cancel point is bounded by one batch.
	if stats.CompletedWindows > 5+cancelBatch {
		t.Fatalf("cancellation reacted too slowly: %d windows after cancel at 5",
			stats.CompletedWindows)
	}
	// Coarse-to-fine schedule: the budget died in the coarsest level
	// (pyramid order puts it last), so the fine levels never started.
	if got := stats.CompletedPerLevel; len(got) != 3 || got[2] == 0 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("schedule not coarse-first: completed per level %v", got)
	}
	for _, b := range boxes {
		if b.Scale != 2 {
			t.Fatalf("best-so-far box from unscored level: %+v", b)
		}
	}
	if int64(len(boxes)) != stats.CompletedWindows {
		t.Fatalf("every scored window hits, so %d boxes != %d completed",
			len(boxes), stats.CompletedWindows)
	}
}

// slowLevel sleeps per window so a deadline expires mid-sweep. A non-nil
// onScore runs before every window.
type slowLevel struct {
	w, h    int
	delay   time.Duration
	onScore func()
}

func (l *slowLevel) ScoreAt(x, y, idx int) (bool, float64) {
	if l.onScore != nil {
		l.onScore()
	}
	time.Sleep(l.delay)
	return stubScore(l.w, l.h, idx)
}
func (l *slowLevel) Fork() LevelScorer { return l }

type slowScorer struct {
	stubScorer
	delay   time.Duration
	onScore func()
}

func (s *slowScorer) PrepareLevel(level *imgproc.Image, levelIdx, win, workers int) LevelScorer {
	return &slowLevel{w: level.W, h: level.H, delay: s.delay, onScore: s.onScore}
}

// scoringDeadline is a context whose deadline timer starts when arm is
// first called rather than at construction, so a budget can be made to
// cover window scoring alone: on a loaded host the pyramid build can
// outlast a short budget before any window is scored. Once the timer fires,
// Err reports context.DeadlineExceeded, as a WithTimeout context would.
type scoringDeadline struct {
	context.Context
	budget  time.Duration
	once    sync.Once
	done    chan struct{}
	expired atomic.Bool
}

func newScoringDeadline(budget time.Duration) *scoringDeadline {
	return &scoringDeadline{Context: context.Background(), budget: budget, done: make(chan struct{})}
}

func (c *scoringDeadline) arm() {
	c.once.Do(func() {
		time.AfterFunc(c.budget, func() {
			c.expired.Store(true)
			close(c.done)
		})
	})
}

func (c *scoringDeadline) Done() <-chan struct{} { return c.done }

func (c *scoringDeadline) Err() error {
	if c.expired.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

func TestSweepDeadlineReturnsBestSoFar(t *testing.T) {
	// 655 windows at 1ms each would take >600ms; the 20ms budget, started
	// at the first scored window, must blow.
	ctx := newScoringDeadline(20 * time.Millisecond)
	slow := &slowScorer{delay: time.Millisecond, onScore: ctx.arm}
	boxes, stats, err := Sweep(ctx, texturedImage(), slow, resilienceParams)
	if err != nil {
		t.Fatalf("anytime contract broken: %v", err)
	}
	if !stats.Degraded {
		t.Fatalf("blown deadline not degraded: %+v", stats)
	}
	if stats.CompletedWindows == 0 {
		t.Fatal("deadline sweep scored nothing; budget too tight for the test")
	}
	if stats.CompletedWindows >= stats.Windows {
		t.Fatalf("sweep finished under a deadline it should blow: %+v", stats)
	}
	// The boxes that did come back are a prefix of the undegraded sweep's
	// raw hits (coarse levels first), not garbage.
	full, _, err := Sweep(context.Background(), texturedImage(), &slowScorer{delay: 0}, resilienceParams)
	if err != nil {
		t.Fatal(err)
	}
	fullSet := make(map[Box]bool, len(full))
	for _, b := range full {
		fullSet[b] = true
	}
	for _, b := range boxes {
		if !fullSet[b] {
			t.Fatalf("degraded sweep invented box %+v", b)
		}
	}
}

// panicLevel panics on one specific window of the native-scale level.
type panicLevel struct {
	w, h     int
	panicIdx int
}

func (l *panicLevel) ScoreAt(x, y, idx int) (bool, float64) {
	if idx == l.panicIdx {
		panic("scorer bug: corrupt cell grid")
	}
	return stubScore(l.w, l.h, idx)
}
func (l *panicLevel) Fork() LevelScorer { return l }

type panicScorer struct {
	stubScorer
	panicIdx int
}

func (s *panicScorer) PrepareLevel(level *imgproc.Image, levelIdx, win, workers int) LevelScorer {
	if levelIdx == 0 {
		return &panicLevel{w: level.W, h: level.H, panicIdx: s.panicIdx}
	}
	return &stubLevel{w: level.W, h: level.H}
}

func TestSweepContainsScorerPanic(t *testing.T) {
	img := texturedImage()
	const panicIdx = 7
	ref, refStats, refErr := Sweep(context.Background(), img, &panicScorer{panicIdx: panicIdx}, resilienceParams)
	if refErr == nil {
		t.Fatal("panic did not surface as an error")
	}
	var we *WindowError
	if !errors.As(refErr, &we) {
		t.Fatalf("error is not a *WindowError: %v", refErr)
	}
	if we.Index != panicIdx || we.Level != 0 || we.Scale != 1 {
		t.Fatalf("WindowError names the wrong window: %+v", we)
	}
	wantX, wantY := panicIdx%15*16, panicIdx/15*16
	if we.X != wantX || we.Y != wantY {
		t.Fatalf("WindowError at (%d,%d), want (%d,%d)", we.X, we.Y, wantX, wantY)
	}
	if len(we.Stack) == 0 {
		t.Fatal("WindowError lost the panic stack")
	}
	if refStats.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", refStats.Panics)
	}
	// A contained panic is not degradation: every other window was scored.
	if refStats.Degraded || refStats.CompletedWindows != refStats.Windows {
		t.Fatalf("panic degraded the sweep: %+v", refStats)
	}
	// The panicked window is a deterministic miss, so output stays
	// byte-identical across worker counts.
	for _, workers := range []int{2, 4} {
		p := resilienceParams
		p.Workers = workers
		got, stats, err := Sweep(context.Background(), img, &panicScorer{panicIdx: panicIdx}, p)
		if err == nil || stats.Panics != 1 {
			t.Fatalf("%d workers: panic vanished (err=%v, panics=%d)", workers, err, stats.Panics)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%d workers changed panic-path output:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}

func TestSweepCapsRetainedPanics(t *testing.T) {
	// Every window panics: all are counted, but only maxWindowErrors carry
	// stacks in the joined error.
	s := Scorer(func(win *imgproc.Image) (bool, float64) { panic("always") })
	boxes, stats, err := Sweep(context.Background(), texturedImage(), s,
		Params{Win: 32, Stride: 16, Scales: []float64{2}, NMSIoU: -1})
	if err == nil {
		t.Fatal("no error from an always-panicking scorer")
	}
	if len(boxes) != 0 {
		t.Fatalf("panicked windows produced boxes: %+v", boxes)
	}
	if stats.Panics != stats.Windows || stats.Panics <= maxWindowErrors {
		t.Fatalf("panics=%d windows=%d (need > %d for this test)",
			stats.Panics, stats.Windows, maxWindowErrors)
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("expected a joined error, got %T", err)
	}
	if n := len(joined.Unwrap()); n != maxWindowErrors {
		t.Fatalf("retained %d WindowErrors, want cap %d", n, maxWindowErrors)
	}
}

func TestSweepDrainsGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		p := resilienceParams
		p.Workers = 4
		if _, stats, err := Sweep(ctx, texturedImage(), &slowScorer{delay: time.Millisecond}, p); err != nil || !stats.Degraded {
			cancel()
			t.Fatalf("iteration %d: err=%v degraded=%v", i, err, stats.Degraded)
		}
		cancel()
	}
	// Workers and the cancellation watcher must all be gone; allow the
	// runtime a moment to reap them.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
