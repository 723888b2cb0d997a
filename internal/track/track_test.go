package track

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hdface/internal/hv"
)

// ident builds a stable appearance prototype and a noisy-sample generator.
func ident(r *hv.RNG, d int) (proto *hv.Vector, sample func() *hv.Vector) {
	proto = hv.NewRand(r, d)
	return proto, func() *hv.Vector {
		v := proto.Clone()
		v.Xor(v, hv.NewRandBiased(r, d, 0.1))
		return v
	}
}

func boxAt(x, y int) [4]int { return [4]int{x, y, x + 48, y + 48} }

func TestSingleTargetKeepsID(t *testing.T) {
	r := hv.NewRNG(1)
	_, sample := ident(r, 1024)
	tk := New(Config{}, 2)
	for f := 0; f < 10; f++ {
		tk.Step([]Detection{{Box: boxAt(10+8*f, 20), Feature: sample()}})
	}
	if len(tk.Active()) != 1 {
		t.Fatalf("active tracks %d, want 1", len(tk.Active()))
	}
	tr := tk.Active()[0]
	if tr.ID != 0 || len(tr.Boxes) != 10 {
		t.Fatalf("track fragmented: id=%d boxes=%d", tr.ID, len(tr.Boxes))
	}
}

func TestTwoTargetsKeepDistinctIDs(t *testing.T) {
	r := hv.NewRNG(3)
	_, sampleA := ident(r, 1024)
	_, sampleB := ident(r, 1024)
	tk := New(Config{}, 4)
	for f := 0; f < 8; f++ {
		tk.Step([]Detection{
			{Box: boxAt(10+6*f, 10), Feature: sampleA()},
			{Box: boxAt(200-6*f, 120), Feature: sampleB()},
		})
	}
	if len(tk.Active()) != 2 {
		t.Fatalf("active tracks %d, want 2", len(tk.Active()))
	}
	a, b := tk.Active()[0], tk.Active()[1]
	if a.ID == b.ID {
		t.Fatal("tracks share an ID")
	}
	if len(a.Boxes) != 8 || len(b.Boxes) != 8 {
		t.Fatalf("fragmented: %d / %d boxes", len(a.Boxes), len(b.Boxes))
	}
}

func TestAppearanceSeparatesCrossingTargets(t *testing.T) {
	// Two targets pass near each other; appearance must keep identities
	// apart even when both are within the positional gate.
	r := hv.NewRNG(5)
	protoA, sampleA := ident(r, 2048)
	_, sampleB := ident(r, 2048)
	tk := New(Config{MaxDist: 100}, 6)
	for f := 0; f < 9; f++ {
		tk.Step([]Detection{
			{Box: boxAt(10+10*f, 50), Feature: sampleA()},
			{Box: boxAt(90-10*f, 50), Feature: sampleB()},
		})
	}
	if len(tk.Active()) != 2 {
		t.Fatalf("active %d, want 2", len(tk.Active()))
	}
	// Track 0 must still match identity A's appearance better.
	tr0 := tk.Active()[0]
	if sim := tr0.Template.HammingSim(protoA); sim < 0.7 {
		t.Fatalf("track 0 template drifted from identity A: %v", sim)
	}
	// And its trajectory must be monotone rightward (A's motion).
	xs := tr0.Boxes
	for i := 1; i < len(xs); i++ {
		if xs[i][0] < xs[i-1][0] {
			t.Fatalf("track 0 switched identity at step %d: %v", i, xs)
		}
	}
}

func TestTrackRetiresAfterMisses(t *testing.T) {
	r := hv.NewRNG(7)
	_, sample := ident(r, 512)
	tk := New(Config{MaxMisses: 2}, 8)
	tk.Step([]Detection{{Box: boxAt(10, 10), Feature: sample()}})
	tk.Step(nil)
	tk.Step(nil)
	if len(tk.Active()) != 0 {
		t.Fatal("track not retired after misses")
	}
	if len(tk.Retired()) != 1 {
		t.Fatal("retired list empty")
	}
	if len(tk.All()) != 1 {
		t.Fatal("All() incomplete")
	}
}

func TestMissedThenReacquiredWithinBudget(t *testing.T) {
	r := hv.NewRNG(9)
	_, sample := ident(r, 1024)
	tk := New(Config{MaxMisses: 3}, 10)
	tk.Step([]Detection{{Box: boxAt(10, 10), Feature: sample()}})
	tk.Step(nil) // one miss
	tk.Step([]Detection{{Box: boxAt(20, 10), Feature: sample()}})
	if len(tk.Active()) != 1 || len(tk.Active()[0].Boxes) != 2 {
		t.Fatalf("reacquisition failed: %+v", tk)
	}
	if tk.Active()[0].Misses != 0 {
		t.Fatal("miss counter not reset")
	}
}

func TestPositionalGateSpawnsNewTrack(t *testing.T) {
	// Same appearance but teleported far away: the positional gate must
	// force a new identity.
	r := hv.NewRNG(11)
	_, sample := ident(r, 512)
	tk := New(Config{MaxDist: 30}, 12)
	tk.Step([]Detection{{Box: boxAt(0, 0), Feature: sample()}})
	tk.Step([]Detection{{Box: boxAt(500, 500), Feature: sample()}})
	if len(tk.Active()) != 2 {
		t.Fatalf("teleport did not spawn: %d active", len(tk.Active()))
	}
}

func TestAppearanceGateSpawnsNewTrack(t *testing.T) {
	r := hv.NewRNG(13)
	_, sampleA := ident(r, 512)
	_, sampleB := ident(r, 512)
	tk := New(Config{}, 14)
	tk.Step([]Detection{{Box: boxAt(10, 10), Feature: sampleA()}})
	// Same place, different face.
	tk.Step([]Detection{{Box: boxAt(12, 10), Feature: sampleB()}})
	if len(tk.Active()) != 2 {
		t.Fatalf("appearance gate failed: %d active", len(tk.Active()))
	}
}

func TestBlendModes(t *testing.T) {
	r := hv.NewRNG(15)
	a, b := hv.NewRand(r, 512), hv.NewRand(r, 512)
	// Blend 1: template replaced.
	tk := New(Config{Blend: F(1), MinSim: F(0.01), MaxDist: 1000}, 16)
	tk.Step([]Detection{{Box: boxAt(0, 0), Feature: a}})
	tk.Step([]Detection{{Box: boxAt(1, 0), Feature: b}})
	if !tk.Active()[0].Template.Equal(b) {
		t.Fatal("blend=1 did not replace template")
	}
	// Explicit Blend 0 (the documented freeze): template unchanged. This
	// regressed once — a float zero was conflated with "unset" and silently
	// became the 0.5 default.
	tk2 := New(Config{Blend: F(0), MinSim: F(0.01), MaxDist: 1000}, 17)
	tk2.Step([]Detection{{Box: boxAt(0, 0), Feature: a}})
	tk2.Step([]Detection{{Box: boxAt(1, 0), Feature: b}})
	if !tk2.Active()[0].Template.Equal(a) {
		t.Fatal("blend=0 did not keep template")
	}
}

func TestExplicitZeroMinSimDisablesGate(t *testing.T) {
	// MinSim 0 must disable the appearance gate: a completely different
	// face at the same position still matches the existing track.
	r := hv.NewRNG(21)
	_, sampleA := ident(r, 512)
	_, sampleB := ident(r, 512)
	tk := New(Config{MinSim: F(0)}, 22)
	tk.Step([]Detection{{Box: boxAt(10, 10), Feature: sampleA()}})
	tk.Step([]Detection{{Box: boxAt(12, 10), Feature: sampleB()}})
	if len(tk.Active()) != 1 {
		t.Fatalf("MinSim=0 still gated: %d active tracks, want 1", len(tk.Active()))
	}
	// The nil (unset) field must still take the 0.55 default: same setup
	// with defaults spawns a second track (see TestAppearanceGateSpawnsNewTrack).
	tk2 := New(Config{}, 22)
	tk2.Step([]Detection{{Box: boxAt(10, 10), Feature: sampleA()}})
	tk2.Step([]Detection{{Box: boxAt(12, 10), Feature: sampleB()}})
	if len(tk2.Active()) != 2 {
		t.Fatalf("unset MinSim lost its default: %d active tracks, want 2", len(tk2.Active()))
	}
}

func TestStepPanicsOnNilFeature(t *testing.T) {
	tk := New(Config{}, 18)
	tk.Step([]Detection{{Box: boxAt(0, 0), Feature: hv.NewRand(hv.NewRNG(1), 64)}})
	defer func() {
		if recover() == nil {
			t.Fatal("nil feature did not panic")
		}
	}()
	tk.Step([]Detection{{Box: boxAt(0, 0)}})
}

func TestStepErrReturnsTypedErrorAndPreservesState(t *testing.T) {
	tk := New(Config{}, 18)
	good := hv.NewRand(hv.NewRNG(1), 64)
	tk.Step([]Detection{{Box: boxAt(0, 0), Feature: good}})

	// Nil feature: typed error naming the detection, no state change.
	_, err := tk.StepErr([]Detection{
		{Box: boxAt(0, 0), Feature: good},
		{Box: boxAt(50, 0)},
	})
	var derr *DetectionError
	if !errors.As(err, &derr) {
		t.Fatalf("want *DetectionError, got %T (%v)", err, err)
	}
	if derr.Index != 1 {
		t.Fatalf("error names detection %d, want 1", derr.Index)
	}
	if tk.Frame() != 1 {
		t.Fatalf("frame advanced to %d on a rejected step", tk.Frame())
	}
	if n := len(tk.Active()[0].Boxes); n != 1 {
		t.Fatalf("rejected step mutated a track: %d boxes", n)
	}

	// Dimension mismatch against the live template is rejected too.
	_, err = tk.StepErr([]Detection{{Box: boxAt(0, 0), Feature: hv.NewRand(hv.NewRNG(2), 128)}})
	if !errors.As(err, &derr) {
		t.Fatalf("dimension mismatch: want *DetectionError, got %T (%v)", err, err)
	}

	// A clean frame still works after rejections.
	if _, err := tk.StepErr([]Detection{{Box: boxAt(2, 0), Feature: good}}); err != nil {
		t.Fatalf("clean step after rejection: %v", err)
	}
}

// TestAssociationTieBreakDeterministic pins the tie-break order: with every
// candidate score exactly equal, the lowest (track, detection) pair wins.
func TestAssociationTieBreakDeterministic(t *testing.T) {
	f := hv.NewRand(hv.NewRNG(33), 256)
	for run := 0; run < 50; run++ {
		tk := New(Config{Blend: F(0), MaxDist: 1000}, 34)
		// Two tracks spawned at the same box with identical templates.
		tk.Step([]Detection{
			{Box: boxAt(0, 0), Feature: f.Clone()},
			{Box: boxAt(0, 0), Feature: f.Clone()},
		})
		// Two identical detections: all four candidate scores tie exactly.
		touched, err := tk.StepErr([]Detection{
			{Box: boxAt(0, 0), Feature: f.Clone()},
			{Box: boxAt(0, 0), Feature: f.Clone()},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(touched) != 2 || touched[0].ID != 0 || touched[1].ID != 1 {
			ids := []int{}
			for _, tr := range touched {
				ids = append(ids, tr.ID)
			}
			t.Fatalf("run %d: tie-break order changed: touched IDs %v, want [0 1]", run, ids)
		}
	}
}

// TestStepDeterministicAcrossRuns replays a noisy multi-target scenario
// twice and requires byte-identical ID assignment — the determinism the
// streaming service's repeated-run gate relies on.
func TestStepDeterministicAcrossRuns(t *testing.T) {
	replay := func() string {
		r := hv.NewRNG(99)
		_, sampleA := ident(r, 1024)
		_, sampleB := ident(r, 1024)
		_, sampleC := ident(r, 1024)
		tk := New(Config{MaxDist: 120}, 100)
		var sb strings.Builder
		for f := 0; f < 30; f++ {
			var dets []Detection
			dets = append(dets, Detection{Box: boxAt(10+5*f, 40), Feature: sampleA()})
			if f >= 5 { // B enters late
				dets = append(dets, Detection{Box: boxAt(200-5*f, 40), Feature: sampleB()})
			}
			if f < 20 { // C exits early
				dets = append(dets, Detection{Box: boxAt(100, 10+4*f), Feature: sampleC()})
			}
			touched := tk.Step(dets)
			for _, tr := range touched {
				fmt.Fprintf(&sb, "%d:%d@%v;", f, tr.ID, tr.Last())
			}
		}
		return sb.String()
	}
	a, b := replay(), replay()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%s\nvs\n%s", a, b)
	}
}
