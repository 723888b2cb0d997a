package dataset

import (
	"hdface/internal/hv"
	"hdface/internal/imgproc"
)

// Sample is one labelled image.
type Sample struct {
	Image *imgproc.Image
	Label int
}

// Dataset is a labelled image collection with train/test splits.
type Dataset struct {
	Name       string
	ImageSize  int // n: images are n x n
	NumClasses int // k
	ClassNames []string
	Train      []Sample
	Test       []Sample
}

// Spec describes one of the paper's Table 1 datasets. FullTrainSize records
// the original corpus size for reporting; the generator renders Train/Test
// counts, which default to laptop-scale fractions.
type Spec struct {
	Name          string
	ImageSize     int
	NumClasses    int
	FullTrainSize int // as reported in Table 1
	Description   string
}

// The paper's three benchmarks (Table 1).
var (
	SpecEmotion = Spec{Name: "EMOTION", ImageSize: 48, NumClasses: 7, FullTrainSize: 36685,
		Description: "Facial Emotion Detection (FER-style, synthetic)"}
	SpecFace1 = Spec{Name: "FACE1", ImageSize: 1024, NumClasses: 2, FullTrainSize: 40172,
		Description: "HD Face Detection (Face Mask Lite-style, synthetic)"}
	SpecFace2 = Spec{Name: "FACE2", ImageSize: 512, NumClasses: 2, FullTrainSize: 522441,
		Description: "Face Detection (Caltech-style, synthetic)"}
)

// Specs lists all Table 1 rows in paper order.
func Specs() []Spec { return []Spec{SpecEmotion, SpecFace1, SpecFace2} }

// Generate renders train+test samples for the spec. Classes are balanced;
// samples are shuffled. The same (spec, seed, counts) triple yields an
// identical dataset.
func Generate(spec Spec, trainN, testN int, seed uint64) *Dataset {
	r := hv.NewRNG(seed)
	ds := &Dataset{
		Name:       spec.Name,
		ImageSize:  spec.ImageSize,
		NumClasses: spec.NumClasses,
	}
	if spec.NumClasses == int(NumEmotions) {
		for e := Emotion(0); e < NumEmotions; e++ {
			ds.ClassNames = append(ds.ClassNames, e.String())
		}
	} else {
		ds.ClassNames = []string{"no-face", "face"}
	}
	ds.Train = renderSplit(spec, trainN, r)
	ds.Test = renderSplit(spec, testN, r)
	return ds
}

func renderSplit(spec Spec, n int, r *hv.RNG) []Sample {
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		label := i % spec.NumClasses
		var img *imgproc.Image
		if spec.NumClasses == int(NumEmotions) {
			img = RenderFace(spec.ImageSize, spec.ImageSize, Emotion(label), r)
		} else if label == 1 {
			// Binary face detection: neutral-ish random emotion faces.
			img = RenderFace(spec.ImageSize, spec.ImageSize, Emotion(r.Intn(int(NumEmotions))), r)
		} else {
			img = RenderNonFace(spec.ImageSize, spec.ImageSize, r)
		}
		out = append(out, Sample{Image: img, Label: label})
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Scene is a composite image with known face locations, used by the
// sliding-window detection experiment (Figure 6).
type Scene struct {
	Image *imgproc.Image
	// Faces lists ground-truth face boxes as (x0, y0, x1, y1).
	Faces [][4]int
}

// GenerateScene renders a w x h clutter background with nFaces faces pasted
// at random non-overlapping positions of size faceSize.
func GenerateScene(w, h, faceSize, nFaces int, seed uint64) *Scene {
	r := hv.NewRNG(seed)
	bg := RenderNonFace(w, h, r)
	sc := &Scene{Image: bg}
	const maxTries = 200
	for f := 0; f < nFaces; f++ {
		placed := false
		for try := 0; try < maxTries && !placed; try++ {
			x := r.Intn(max(1, w-faceSize))
			y := r.Intn(max(1, h-faceSize))
			box := [4]int{x, y, x + faceSize, y + faceSize}
			if overlapsAny(box, sc.Faces) {
				continue
			}
			face := RenderFace(faceSize, faceSize, Emotion(r.Intn(int(NumEmotions))), r)
			bg.Blend(face, x, y, 1)
			sc.Faces = append(sc.Faces, box)
			placed = true
		}
	}
	return sc
}

func overlapsAny(b [4]int, boxes [][4]int) bool {
	for _, o := range boxes {
		if b[0] < o[2] && o[0] < b[2] && b[1] < o[3] && o[1] < b[3] {
			return true
		}
	}
	return false
}

// InBox reports whether the window (x0, y0, x1, y1) overlaps a ground-truth
// face box by at least 50% of the window area.
func (s *Scene) InBox(x0, y0, x1, y1 int) bool {
	area := (x1 - x0) * (y1 - y0)
	if area <= 0 {
		return false
	}
	for _, f := range s.Faces {
		ix0, iy0 := max(x0, f[0]), max(y0, f[1])
		ix1, iy1 := min(x1, f[2]), min(y1, f[3])
		if ix1 > ix0 && iy1 > iy0 && (ix1-ix0)*(iy1-iy0)*2 >= area {
			return true
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
