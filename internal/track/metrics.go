package track

import "sort"

// GroundTruth is one frame's true boxes per subject: Truth[frame][subject].
type GroundTruth [][][4]int

// iou computes intersection-over-union of two boxes.
func iou(a, b [4]int) float64 {
	ix0, iy0 := maxI(a[0], b[0]), maxI(a[1], b[1])
	ix1, iy1 := minI(a[2], b[2]), minI(a[3], b[3])
	if ix1 <= ix0 || iy1 <= iy0 {
		return 0
	}
	inter := float64((ix1 - ix0) * (iy1 - iy0))
	areaA := float64((a[2] - a[0]) * (a[3] - a[1]))
	areaB := float64((b[2] - b[0]) * (b[3] - b[1]))
	u := areaA + areaB - inter
	if u <= 0 {
		return 0
	}
	return inter / u
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Obs is one tracker output observation: track ID and box at a frame. The
// identity metrics accept flat observation lists so they can score a remote
// tracker: the /stream endpoint's NDJSON events.
type Obs struct {
	ID    int
	Frame int
	Box   [4]int
}

// IDF1Report carries the identity-F1 decomposition: IDTP observations where
// a track's box covered the subject globally assigned to that track, IDFP
// track observations assigned to no subject (or the wrong one), IDFN
// subject appearances no assigned track covered.
type IDF1Report struct {
	IDTP, IDFP, IDFN int
}

// F1 returns 2·IDTP / (2·IDTP + IDFP + IDFN), the ratio of correctly
// identified observations — the standard MOT identity-F1.
func (r IDF1Report) F1() float64 {
	den := 2*r.IDTP + r.IDFP + r.IDFN
	if den == 0 {
		return 0
	}
	return 2 * float64(r.IDTP) / float64(den)
}

// IDF1 computes identity-F1 of tracker observations against per-frame
// ground truth: each track ID is globally assigned to at most one subject
// (and vice versa) so as to maximise the frames of agreement, then every
// observation and every subject appearance is scored against that
// assignment. A track box agrees with a subject at a frame when their IoU
// is at least iouThresh. The assignment is a deterministic greedy matching
// on (overlap count desc, track ID asc, subject asc) — exact for the small
// track/subject counts the benches use.
func IDF1(obs []Obs, truth GroundTruth, iouThresh float64) IDF1Report {
	// overlap[(track, subject)] = frames where the track box covers the
	// subject's ground-truth box.
	type pair struct{ id, subject int }
	overlap := map[pair]int{}
	totalGT := 0
	for f, subjects := range truth {
		for s, gt := range subjects {
			if gt == ([4]int{}) {
				continue
			}
			totalGT++
			for _, o := range obs {
				if o.Frame != f {
					continue
				}
				if iou(o.Box, gt) >= iouThresh {
					overlap[pair{o.ID, s}]++
				}
			}
		}
	}
	pairs := make([]pair, 0, len(overlap))
	for p := range overlap {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		pa, pb := pairs[a], pairs[b]
		if overlap[pa] != overlap[pb] {
			return overlap[pa] > overlap[pb]
		}
		if pa.id != pb.id {
			return pa.id < pb.id
		}
		return pa.subject < pb.subject
	})
	usedID, usedSubj := map[int]bool{}, map[int]bool{}
	idtp := 0
	for _, p := range pairs {
		if usedID[p.id] || usedSubj[p.subject] {
			continue
		}
		usedID[p.id] = true
		usedSubj[p.subject] = true
		idtp += overlap[p]
	}
	return IDF1Report{
		IDTP: idtp,
		IDFP: len(obs) - idtp,
		IDFN: totalGT - idtp,
	}
}
