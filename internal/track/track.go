// Package track implements multi-object face tracking over detection
// streams — the surveillance use case the paper's introduction motivates.
// Detections carry an appearance hypervector (produced by any hdface
// feature front-end); association combines holographic appearance
// similarity with positional gating, so identity survives detector noise
// exactly the way the underlying representation survives bit errors.
//
// Trackers are deterministic: for a fixed (Config, seed, detection
// sequence) two runs produce identical track IDs, boxes and templates.
// Association ties — common with quantized Hamming similarities — are
// broken by explicit (score, track, detection) ordering, never by sort
// instability.
package track

import (
	"fmt"
	"math"
	"sort"

	"hdface/internal/hv"
)

// Detection is one detector output in a frame.
type Detection struct {
	Box     [4]int // x0, y0, x1, y1
	Feature *hv.Vector
}

// Config tunes the tracker. MinSim and Blend are optional: nil takes the
// default, while an explicit value — including zero, which is meaningful
// for both — is honoured as given. Use F to set them inline.
type Config struct {
	// MaxMisses retires a track after this many consecutive unmatched
	// frames (default 3).
	MaxMisses int
	// MinSim is the appearance similarity gate in [0, 1] (Hamming
	// similarity; nil defaults to 0.55). An explicit 0 disables the gate:
	// any appearance within the positional gate may match.
	MinSim *float64
	// MaxDist is the positional gate: centre distance in pixels between a
	// detection and the track's last box (default 48).
	MaxDist float64
	// Blend is the appearance template update rate (nil defaults to 0.5 —
	// majority merge). An explicit 0 freezes the first template; 1 always
	// replaces it.
	Blend *float64
}

// F wraps a float for Config's optional fields, distinguishing an explicit
// value (including a meaningful zero) from an unset field.
func F(v float64) *float64 { return &v }

func (c Config) withDefaults() Config {
	if c.MaxMisses == 0 {
		c.MaxMisses = 3
	}
	if c.MinSim == nil {
		c.MinSim = F(0.55)
	}
	if c.MaxDist == 0 {
		c.MaxDist = 48
	}
	if c.Blend == nil {
		c.Blend = F(0.5)
	}
	return c
}

// Track is one tracked identity.
type Track struct {
	ID     int
	Boxes  [][4]int // one entry per matched frame
	Frames []int    // frame index of each box
	// Template is the appearance hypervector (merged over matches).
	Template *hv.Vector
	Misses   int
	retired  bool
}

// Last returns the most recent box.
func (t *Track) Last() [4]int { return t.Boxes[len(t.Boxes)-1] }

// Tracker maintains active and retired tracks across frames.
type Tracker struct {
	cfg           Config
	minSim, blend float64
	rng           *hv.RNG
	frame         int
	nextID        int
	active        []*Track
	retired       []*Track
}

// New returns a tracker.
func New(cfg Config, seed uint64) *Tracker {
	cfg = cfg.withDefaults()
	return &Tracker{cfg: cfg, minSim: *cfg.MinSim, blend: *cfg.Blend, rng: hv.NewRNG(seed ^ 0x7ac)}
}

// Active returns the live tracks.
func (t *Tracker) Active() []*Track { return t.active }

// Retired returns tracks dropped for inactivity.
func (t *Tracker) Retired() []*Track { return t.retired }

// All returns every track ever created, active first.
func (t *Tracker) All() []*Track {
	out := append([]*Track(nil), t.active...)
	return append(out, t.retired...)
}

// Frame returns the index the next Step will be recorded at.
func (t *Tracker) Frame() int { return t.frame }

func center(b [4]int) (float64, float64) {
	return float64(b[0]+b[2]) / 2, float64(b[1]+b[3]) / 2
}

func dist(a, b [4]int) float64 {
	ax, ay := center(a)
	bx, by := center(b)
	return math.Hypot(ax-bx, ay-by)
}

// candidate is one feasible (track, detection) pairing.
type candidate struct {
	track, det int
	score      float64
}

// DetectionError reports an invalid detection rejected by StepErr. The
// tracker state is untouched: the frame did not advance and no track was
// created or updated, so the caller may drop the bad frame and continue.
type DetectionError struct {
	Index  int // index of the offending detection in the Step input
	Reason string
}

// Error implements error.
func (e *DetectionError) Error() string {
	return fmt.Sprintf("track: detection %d: %s", e.Index, e.Reason)
}

// Step ingests one frame of detections, returning the tracks matched or
// spawned this frame. It panics on an invalid detection (nil or
// mismatched-dimension feature) — serving ingresses should call StepErr,
// which returns a typed *DetectionError instead.
func (t *Tracker) Step(dets []Detection) []*Track {
	out, err := t.StepErr(dets)
	if err != nil {
		panic(err.Error())
	}
	return out
}

// validate rejects detections the association math cannot handle before
// any state changes: nil features and dimensionality mismatches (against
// the live templates and against the other detections in the frame).
func (t *Tracker) validate(dets []Detection) error {
	d := 0
	if len(t.active) > 0 {
		d = t.active[0].Template.D()
	}
	for i, det := range dets {
		if det.Feature == nil {
			return &DetectionError{Index: i, Reason: "detection without feature"}
		}
		if d == 0 {
			d = det.Feature.D()
		}
		if det.Feature.D() != d {
			return &DetectionError{Index: i,
				Reason: fmt.Sprintf("feature dimensionality %d != tracker's %d", det.Feature.D(), d)}
		}
	}
	return nil
}

// StepErr ingests one frame of detections, returning the tracks matched or
// spawned this frame. An invalid detection returns a *DetectionError with
// the tracker unchanged — the frame counter does not advance, so a
// streaming caller can surface the error and keep feeding frames.
func (t *Tracker) StepErr(dets []Detection) ([]*Track, error) {
	if err := t.validate(dets); err != nil {
		return nil, err
	}
	defer func() { t.frame++ }()
	// Score all feasible pairs.
	var cands []candidate
	for ti, tr := range t.active {
		for di, d := range dets {
			pd := dist(tr.Last(), d.Box)
			if pd > t.cfg.MaxDist {
				continue
			}
			sim := tr.Template.HammingSim(d.Feature)
			if sim < t.minSim {
				continue
			}
			// Combined score: appearance dominates, position breaks ties.
			cands = append(cands, candidate{ti, di, sim - 0.001*pd/t.cfg.MaxDist})
		}
	}
	// Quantized Hamming similarities tie often; an unstable sort would let
	// equal-score pairs reorder between runs and hand out different IDs.
	// Total order: score descending, then track index, then detection index.
	sort.SliceStable(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if ca.score != cb.score {
			return ca.score > cb.score
		}
		if ca.track != cb.track {
			return ca.track < cb.track
		}
		return ca.det < cb.det
	})

	matchedTrack := map[int]bool{}
	matchedDet := map[int]bool{}
	var touched []*Track
	for _, c := range cands {
		if matchedTrack[c.track] || matchedDet[c.det] {
			continue
		}
		matchedTrack[c.track] = true
		matchedDet[c.det] = true
		tr := t.active[c.track]
		d := dets[c.det]
		tr.Boxes = append(tr.Boxes, d.Box)
		tr.Frames = append(tr.Frames, t.frame)
		tr.Misses = 0
		t.mergeTemplate(tr, d.Feature)
		touched = append(touched, tr)
	}

	// Unmatched detections spawn tracks.
	for di, d := range dets {
		if matchedDet[di] {
			continue
		}
		tr := &Track{
			ID:       t.nextID,
			Boxes:    [][4]int{d.Box},
			Frames:   []int{t.frame},
			Template: d.Feature.Clone(),
		}
		t.nextID++
		t.active = append(t.active, tr)
		touched = append(touched, tr)
	}

	// Unmatched tracks age; stale ones retire.
	var still []*Track
	for ti, tr := range t.active {
		if !matchedTrack[ti] && len(tr.Boxes) > 0 && tr.Frames[len(tr.Frames)-1] != t.frame {
			tr.Misses++
		}
		if tr.Misses >= t.cfg.MaxMisses {
			tr.retired = true
			t.retired = append(t.retired, tr)
			continue
		}
		still = append(still, tr)
	}
	t.active = still
	return touched, nil
}

// mergeTemplate folds a new appearance into the track template: a random
// Blend-fraction of dimensions adopt the new feature — the hypervector
// analogue of an exponential moving average.
func (t *Tracker) mergeTemplate(tr *Track, f *hv.Vector) {
	if t.blend >= 1 {
		tr.Template = f.Clone()
		return
	}
	if t.blend <= 0 {
		return
	}
	mask := hv.NewRandBiased(t.rng, f.D(), t.blend)
	merged := hv.New(f.D()).Select(mask, f, tr.Template)
	tr.Template = merged
}
