package main

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"hdface"
	"hdface/internal/detect"
	"hdface/internal/imgproc"
	"hdface/internal/serve"
	"hdface/internal/track"
)

// servedParams is the sweep the daemon runs for /detect with no sweep
// flags: stride win/2, scales {1,2}, NMS at 0.3, Procs workers.
func servedParams(procs int) detect.Params {
	return detect.Params{Win: win, Stride: win / 2, Scales: []float64{1, 2}, NMSIoU: 0.3, Workers: procs}
}

func decode(pgm []byte) *imgproc.Image {
	img, err := imgproc.ReadPGM(bytes.NewReader(pgm))
	if err != nil {
		panic(err) // the bench encoded these bytes itself
	}
	return img
}

// scoresEqual reports whether two score vectors are equal bit for bit.
func scoresEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// boxesEqual reports whether served boxes equal an in-process sweep's, bit
// for bit.
func boxesEqual(got []serve.BoxJSON, want []detect.Box) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		w := want[i]
		if g.X0 != w.X0 || g.Y0 != w.Y0 || g.X1 != w.X1 || g.Y1 != w.Y1 ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.Scale) != math.Float64bits(w.Scale) {
			return false
		}
	}
	return true
}

// checkPredict compares the first responses (nil where the request failed)
// with Scores of a freshly loaded snapshot.
func (r *run) checkPredict(crops []crop, got []*serve.PredictResponse) {
	p, err := hdface.LoadSnapshotFile(r.rc.Fx.Snapshot)
	if err != nil {
		r.problem("predict check: %v", err)
		return
	}
	for i, res := range got {
		if res == nil {
			continue
		}
		if want := p.Scores(decode(crops[i].PGM)); !scoresEqual(res.Scores, want) {
			r.problem("predict response %d: scores %v, in-process %v", i, res.Scores, want)
		}
	}
}

// detectAnswer is one /detect reply for pool scene index scene.
type detectAnswer struct {
	scene int
	res   serve.DetectResponse
}

// checkDetect compares every reply with an in-process sweep of its scene
// under the daemon's parameters.
func (r *run) checkDetect(scenes []scene, answers []detectAnswer) error {
	p, err := hdface.LoadSnapshotFile(r.rc.Fx.Snapshot)
	if err != nil {
		return err
	}
	scorer, err := p.DetectScorer(nil, win)
	if err != nil {
		return err
	}
	ref := map[int][]detect.Box{}
	for _, a := range answers {
		want, ok := ref[a.scene]
		if !ok {
			want, _, err = detect.Sweep(context.Background(), scenes[a.scene].Img, scorer, servedParams(r.rc.Procs))
			if err != nil {
				return err
			}
			ref[a.scene] = want
		}
		if !boxesEqual(a.res.Boxes, want) {
			r.problem("detect scene %d: served boxes %v, in-process %v", a.scene, a.res.Boxes, want)
		}
	}
	return nil
}

// detectF1 is detection F1 at IoU 0.5 over the first reply to each scene.
func detectF1(scenes []scene, first []*serve.DetectResponse) float64 {
	var tp, fp, fn int
	for i, res := range first {
		if res == nil {
			continue
		}
		boxes := make([]detect.Box, len(res.Boxes))
		for j, b := range res.Boxes {
			boxes[j] = detect.Box{X0: b.X0, Y0: b.Y0, X1: b.X1, Y1: b.Y1, Score: b.Score, Scale: b.Scale}
		}
		t, p, n := detect.MatchTruth(boxes, scenes[i].Truth, 0.5)
		tp, fp, fn = tp+t, fp+p, fn+n
	}
	if tp+fp+fn == 0 {
		return 0
	}
	return 2 * float64(tp) / float64(2*tp+fp+fn)
}

// clipIDF1 scores a clip's frame events against its truth.
func clipIDF1(c clip, events []serve.StreamEvent) track.IDF1Report {
	var obs []track.Obs
	for f, ev := range events {
		for _, t := range ev.Tracks {
			obs = append(obs, track.Obs{ID: t.ID, Frame: f, Box: t.Box})
		}
	}
	return track.IDF1(obs, track.GroundTruth(c.Truth[:len(events)]), 0.5)
}

// mixedProblems checks lane A replies in op order: every reply names the
// tenant it was sent for, and no tenant's model version ever goes
// backwards.
func mixedProblems(ops []mixedOp, ok []bool, preds []serve.PredictResponse, fbs []serve.FeedbackResponse) []string {
	var out []string
	version := map[string]uint64{}
	see := func(i int, tenant string, v uint64) {
		if v < version[tenant] {
			out = append(out, fmt.Sprintf("mixed op %d: tenant %s version %d after %d", i, tenant, v, version[tenant]))
		}
		version[tenant] = max(version[tenant], v)
	}
	for i, op := range ops {
		if !ok[i] {
			continue
		}
		if op.Feedback {
			if fbs[i].Tenant != op.Tenant {
				out = append(out, fmt.Sprintf("mixed op %d: feedback for %s answered for %q", i, op.Tenant, fbs[i].Tenant))
			}
			if fbs[i].NewVersion != 0 {
				see(i, op.Tenant, fbs[i].NewVersion)
			}
			continue
		}
		if preds[i].Tenant != op.Tenant {
			out = append(out, fmt.Sprintf("mixed op %d: predict for %s answered for %q", i, op.Tenant, preds[i].Tenant))
		}
		see(i, op.Tenant, preds[i].ModelVersion)
	}
	return out
}
