package dataset

import (
	"hdface/internal/hv"
	"hdface/internal/imgproc"
)

// ScenarioSpec configures a synthetic streaming scenario for the tracking
// service: a clip with per-frame ground truth designed to exercise a
// specific tracker failure mode. The zero value of every knob gets a
// sensible default; the same spec always renders the same clip.
type ScenarioSpec struct {
	W, H     int // canvas (default 160×120)
	FaceSize int // rendered face edge (default 48, the usual detect window)
	Frames   int // clip length (default 20)
	Subjects int // identities (default 2)
	Seed     uint64

	// EntryExit staggers subject lifetimes: subject i enters after i·stagger
	// frames and the earliest subjects leave before the clip ends, so the
	// tracker sees births and deaths instead of a fixed population.
	EntryExit bool
	// Crossing drives subjects along one shared horizontal lane from
	// opposite edges so they fully occlude each other mid-clip — the case
	// where NMS merges the boxes and a tracker must coast through the gap
	// on appearance memory.
	Crossing bool
	// Jitter shakes the camera: every frame the subjects (and their truth
	// boxes) shift by a uniform offset in [-Jitter, Jitter] pixels per axis.
	Jitter int
	// Noise is the per-frame sensor noise amplitude (default 4).
	Noise int
	// PlainBG renders a plain illumination gradient instead of the usual
	// cluttered background — the benign "clean" case where every detection
	// should be a real face.
	PlainBG bool
}

func (s ScenarioSpec) withDefaults() ScenarioSpec {
	if s.W <= 0 {
		s.W = 160
	}
	if s.H <= 0 {
		s.H = 120
	}
	if s.FaceSize <= 0 {
		s.FaceSize = 48
	}
	if s.Frames <= 0 {
		s.Frames = 20
	}
	if s.Subjects <= 0 {
		s.Subjects = 2
	}
	if s.Noise <= 0 {
		s.Noise = 4
	}
	return s
}

// SequenceFrame is one frame of a synthetic surveillance clip with
// ground-truth face boxes (one per subject, in subject order; a subject
// that has left the canvas gets a zero box).
type SequenceFrame struct {
	Image *imgproc.Image
	Boxes [][4]int
}

// scenarioActor is one identity: a fixed face, a path, and a lifetime.
type scenarioActor struct {
	face         *imgproc.Image
	x, y, dx, dy float64
	enter, exit  int // present in frames [enter, exit)
}

// GenerateScenario renders the clip. Boxes[i] is subject i's box, zero
// while the subject is absent (not yet entered, already left — occluded
// subjects keep their box: they are still there, the detector just cannot
// see them).
func GenerateScenario(spec ScenarioSpec) []SequenceFrame {
	spec = spec.withDefaults()
	r := hv.NewRNG(spec.Seed ^ 0x5ce2)
	var bg *imgproc.Image
	if spec.PlainBG {
		bg = imgproc.NewImage(spec.W, spec.H)
		bg.GradientFill(0, 0, float64(spec.W), float64(spec.H),
			uint8(60+r.Intn(40)), uint8(110+r.Intn(40)))
	} else {
		bg = RenderNonFace(spec.W, spec.H, r)
	}
	maxX := float64(spec.W - spec.FaceSize)
	maxY := float64(spec.H - spec.FaceSize)

	actors := make([]scenarioActor, spec.Subjects)
	for i := range actors {
		a := scenarioActor{
			face: RenderFace(spec.FaceSize, spec.FaceSize, Emotion(r.Intn(int(NumEmotions))), r),
			exit: spec.Frames,
		}
		if spec.Crossing {
			// One shared lane, opposite directions, meeting mid-clip.
			a.y = maxY / 2
			step := maxX / float64(max(1, spec.Frames-1))
			if i%2 == 0 {
				a.x, a.dx = 0, step
			} else {
				a.x, a.dx = maxX, -step
			}
		} else {
			// Separate horizontal lanes with gentle drift: identities never
			// meet, the clean case the identity-F1 gate scores.
			if spec.Subjects > 1 {
				a.y = maxY * float64(i) / float64(spec.Subjects-1)
			} else {
				a.y = maxY / 2
			}
			a.x = maxX * float64(i+1) / float64(spec.Subjects+1)
			a.dx = (r.Float64()*2 - 1) * float64(spec.FaceSize) / 8
		}
		if spec.EntryExit {
			stagger := spec.Frames / (2 * spec.Subjects)
			a.enter = i * stagger
			a.exit = spec.Frames - (spec.Subjects-1-i)*stagger
		}
		actors[i] = a
	}

	out := make([]SequenceFrame, spec.Frames)
	for f := 0; f < spec.Frames; f++ {
		img := bg.Clone()
		fr := SequenceFrame{Image: img}
		ox, oy := 0, 0
		if spec.Jitter > 0 {
			ox = r.Intn(2*spec.Jitter+1) - spec.Jitter
			oy = r.Intn(2*spec.Jitter+1) - spec.Jitter
		}
		for i := range actors {
			a := &actors[i]
			if f < a.enter || f >= a.exit {
				fr.Boxes = append(fr.Boxes, [4]int{})
				continue
			}
			if a.x < 0 || a.x > maxX {
				a.dx = -a.dx
				a.x = clampF(a.x, 0, maxX)
			}
			if a.y < 0 || a.y > maxY {
				a.dy = -a.dy
				a.y = clampF(a.y, 0, maxY)
			}
			x, y := int(a.x)+ox, int(a.y)+oy
			img.Blend(a.face, x, y, 1)
			fr.Boxes = append(fr.Boxes,
				[4]int{x, y, x + spec.FaceSize, y + spec.FaceSize})
			a.x += a.dx
			a.y += a.dy
		}
		addPixelNoise(img, r, spec.Noise)
		out[f] = fr
	}
	return out
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
