package main

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hdface"
	"hdface/internal/detect"
	"hdface/internal/serve"
)

var (
	testFxOnce sync.Once
	testFx     *fixture
	testFxErr  error
)

// smallFixture returns a D=512 fixture from the benchmark's own cache, the
// one the smoke run uses.
func smallFixture(t *testing.T) *fixture {
	t.Helper()
	testFxOnce.Do(func() {
		root, err := repoRoot()
		if err != nil {
			testFxErr = err
			return
		}
		testFx, testFxErr = cachedFixture(filepath.Join(root, ".bench_build", "fixture"), 512, 2)
	})
	if testFxErr != nil {
		t.Fatal(testFxErr)
	}
	return testFx
}

// TestChecksRejectTampering feeds every output check the answers an honest
// daemon gives, then the same answers with one value changed.
func TestChecksRejectTampering(t *testing.T) {
	fx := smallFixture(t)
	newRun := func() *run { return &run{rc: runConfig{Fx: fx, Procs: 2}, m: metricSet{}} }

	t.Run("predict", func(t *testing.T) {
		p, err := hdface.LoadSnapshotFile(fx.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		crops := makeCrops(1, 4)
		got := make([]*serve.PredictResponse, len(crops))
		for i, c := range crops {
			got[i] = &serve.PredictResponse{Scores: p.Scores(decode(c.PGM))}
		}
		r := newRun()
		r.checkPredict(crops, got)
		if len(r.problems) != 0 {
			t.Fatalf("honest answers rejected: %v", r.problems)
		}
		got[2].Scores[1] = math.Nextafter(got[2].Scores[1], 1)
		r.checkPredict(crops, got)
		if len(r.problems) != 1 {
			t.Fatalf("one ulp off in one score: problems = %v, want one", r.problems)
		}
	})

	t.Run("detect", func(t *testing.T) {
		p, err := hdface.LoadSnapshotFile(fx.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		scorer, err := p.DetectScorer(nil, win)
		if err != nil {
			t.Fatal(err)
		}
		scenes := makeScenes(1, 3)
		var answers []detectAnswer
		for i, sc := range scenes {
			boxes, _, err := detect.Sweep(context.Background(), sc.Img, scorer, servedParams(2))
			if err != nil {
				t.Fatal(err)
			}
			var res serve.DetectResponse
			for _, b := range boxes {
				res.Boxes = append(res.Boxes, serve.BoxJSON{X0: b.X0, Y0: b.Y0, X1: b.X1, Y1: b.Y1, Score: b.Score, Scale: b.Scale})
			}
			answers = append(answers, detectAnswer{i, res})
		}
		r := newRun()
		if err := r.checkDetect(scenes, answers); err != nil || len(r.problems) != 0 {
			t.Fatalf("honest answers rejected: err=%v problems=%v", err, r.problems)
		}
		k := -1
		for i, a := range answers {
			if len(a.res.Boxes) > 0 {
				k = i
			}
		}
		if k < 0 {
			t.Fatal("no scene produced a box to tamper with")
		}
		answers[k].res.Boxes[0].X1++
		if err := r.checkDetect(scenes, answers); err != nil || len(r.problems) != 1 {
			t.Fatalf("one box edge moved: err=%v problems=%v, want one problem", err, r.problems)
		}
	})

	t.Run("stream", func(t *testing.T) {
		clips := makeClips(1, 3, 1)[:1]
		honest := streamResult{Sent: 3, Lat: make([]time.Duration, 3)}
		for i := 0; i < 3; i++ {
			honest.Events = append(honest.Events, serve.StreamEvent{Type: "frame", Frame: i})
		}
		r := newRun()
		r.streamOutcome(clips, []clipRun{{0, honest}})
		if len(r.problems) != 0 {
			t.Fatalf("honest stream rejected: %v", r.problems)
		}
		short := honest
		short.Events = honest.Events[:2]
		errored := streamResult{Sent: 3, Lat: honest.Lat, Events: append([]serve.StreamEvent{}, honest.Events...)}
		errored.Events[1] = serve.StreamEvent{Type: "error", Frame: 1, Error: "queue full"}
		for name, res := range map[string]streamResult{"missing event": short, "error event": errored} {
			r := newRun()
			r.streamOutcome(clips, []clipRun{{0, res}})
			if len(r.problems) == 0 {
				t.Errorf("%s accepted", name)
			}
		}
	})

	t.Run("mixed", func(t *testing.T) {
		ops := []mixedOp{
			{Tenant: "t01"},
			{Tenant: "t01", Feedback: true, Ref: 0},
			{Tenant: "t02", Crop: 2},
			{Tenant: "t01", Crop: 3},
		}
		ok := []bool{true, true, true, true}
		preds := []serve.PredictResponse{{Tenant: "t01", ModelVersion: 1}, {}, {Tenant: "t02", ModelVersion: 1}, {Tenant: "t01", ModelVersion: 2}}
		fbs := []serve.FeedbackResponse{{}, {Tenant: "t01", NewVersion: 2}, {}, {}}
		if p := mixedProblems(ops, ok, preds, fbs); len(p) != 0 {
			t.Fatalf("honest replies rejected: %v", p)
		}
		wrong := append([]serve.PredictResponse{}, preds...)
		wrong[2].Tenant = "t01"
		if p := mixedProblems(ops, ok, wrong, fbs); len(p) != 1 {
			t.Errorf("reply naming another tenant: problems = %v, want one", p)
		}
		back := append([]serve.PredictResponse{}, preds...)
		back[3].ModelVersion = 1
		if p := mixedProblems(ops, ok, back, fbs); len(p) != 1 {
			t.Errorf("version going backwards: problems = %v, want one", p)
		}
	})
}
