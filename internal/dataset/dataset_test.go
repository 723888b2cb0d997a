package dataset

import (
	"testing"

	"hdface/internal/hv"
)

func TestEmotionString(t *testing.T) {
	if Happy.String() != "happy" || Surprise.String() != "surprise" {
		t.Fatal("emotion names wrong")
	}
	if Emotion(99).String() != "unknown" {
		t.Fatal("out-of-range emotion name")
	}
	if int(NumEmotions) != 7 {
		t.Fatalf("NumEmotions = %d", NumEmotions)
	}
}

func TestRenderFaceDeterministic(t *testing.T) {
	a := RenderFace(48, 48, Happy, hv.NewRNG(5))
	b := RenderFace(48, 48, Happy, hv.NewRNG(5))
	if !a.Equal(b) {
		t.Fatal("same seed rendered different faces")
	}
	c := RenderFace(48, 48, Happy, hv.NewRNG(6))
	if a.Equal(c) {
		t.Fatal("different seeds rendered identical faces")
	}
}

func TestRenderFaceHasStructure(t *testing.T) {
	r := hv.NewRNG(1)
	img := RenderFace(48, 48, Neutral, r)
	if img.W != 48 || img.H != 48 {
		t.Fatal("bad size")
	}
	// A rendered face must have nontrivial contrast.
	var lo, hi uint8 = 255, 0
	for _, p := range img.Pix {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if hi-lo < 40 {
		t.Fatalf("face image nearly flat: range %d", hi-lo)
	}
}

func TestEmotionsAreVisuallyDistinct(t *testing.T) {
	// Average faces of different emotions should differ more than two
	// renders of the same emotion differ from each other.
	avg := func(e Emotion, seed uint64) []float64 {
		r := hv.NewRNG(seed)
		acc := make([]float64, 48*48)
		const n = 12
		for i := 0; i < n; i++ {
			img := RenderFace(48, 48, e, r)
			for j, p := range img.Pix {
				acc[j] += float64(p) / n
			}
		}
		return acc
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return s
	}
	happy1 := avg(Happy, 1)
	happy2 := avg(Happy, 2)
	surprise := avg(Surprise, 3)
	within := dist(happy1, happy2)
	between := dist(happy1, surprise)
	if between <= within {
		t.Fatalf("emotion classes not separable: within=%v between=%v", within, between)
	}
}

func TestRenderNonFaceVariety(t *testing.T) {
	r := hv.NewRNG(2)
	seen := map[string]bool{}
	for i := 0; i < 12; i++ {
		img := RenderNonFace(32, 32, r)
		key := string(img.Pix[:16])
		seen[key] = true
	}
	if len(seen) < 10 {
		t.Fatalf("non-face renders not diverse: %d unique of 12", len(seen))
	}
}

func TestGenerateShapes(t *testing.T) {
	ds := Generate(SpecEmotion, 21, 14, 9)
	if ds.Name != "EMOTION" || ds.ImageSize != 48 || ds.NumClasses != 7 {
		t.Fatalf("spec not honoured: %+v", ds)
	}
	if len(ds.Train) != 21 || len(ds.Test) != 14 {
		t.Fatal("split sizes wrong")
	}
	if len(ds.ClassNames) != 7 || ds.ClassNames[3] != "happy" {
		t.Fatalf("class names wrong: %v", ds.ClassNames)
	}
	counts := make([]int, 7)
	for _, s := range ds.Train {
		if s.Label < 0 || s.Label >= 7 {
			t.Fatalf("bad label %d", s.Label)
		}
		if s.Image.W != 48 || s.Image.H != 48 {
			t.Fatal("bad image size")
		}
		counts[s.Label]++
	}
	for c, n := range counts {
		if n != 3 {
			t.Fatalf("class %d has %d samples, want 3", c, n)
		}
	}
}

func TestGenerateBinaryDataset(t *testing.T) {
	spec := SpecFace2
	spec.ImageSize = 64 // keep the test fast; geometry is scale-free
	ds := Generate(spec, 10, 4, 3)
	if ds.NumClasses != 2 || ds.ClassNames[1] != "face" {
		t.Fatalf("binary dataset wrong: %+v", ds.ClassNames)
	}
	ones := 0
	for _, s := range ds.Train {
		ones += s.Label
	}
	if ones != 5 {
		t.Fatalf("unbalanced binary split: %d/10 faces", ones)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(SpecEmotion, 7, 7, 42)
	b := Generate(SpecEmotion, 7, 7, 42)
	for i := range a.Train {
		if a.Train[i].Label != b.Train[i].Label || !a.Train[i].Image.Equal(b.Train[i].Image) {
			t.Fatalf("sample %d differs across identical generations", i)
		}
	}
}

func TestSpecs(t *testing.T) {
	s := Specs()
	if len(s) != 3 {
		t.Fatal("want 3 specs")
	}
	if s[0].FullTrainSize != 36685 || s[1].ImageSize != 1024 || s[2].FullTrainSize != 522441 {
		t.Fatal("Table 1 constants wrong")
	}
}

func TestGenerateScene(t *testing.T) {
	sc := GenerateScene(200, 150, 48, 3, 11)
	if sc.Image.W != 200 || sc.Image.H != 150 {
		t.Fatal("scene size wrong")
	}
	if len(sc.Faces) != 3 {
		t.Fatalf("placed %d faces, want 3", len(sc.Faces))
	}
	// Boxes must be disjoint and inside the canvas.
	for i, f := range sc.Faces {
		if f[0] < 0 || f[1] < 0 || f[2] > 200 || f[3] > 150 {
			t.Fatalf("face %d out of canvas: %v", i, f)
		}
		for j := i + 1; j < len(sc.Faces); j++ {
			if overlapsAny(f, [][4]int{sc.Faces[j]}) {
				t.Fatalf("faces %d and %d overlap", i, j)
			}
		}
	}
}

func TestSceneInBox(t *testing.T) {
	sc := &Scene{Faces: [][4]int{{10, 10, 58, 58}}}
	if !sc.InBox(10, 10, 58, 58) {
		t.Fatal("exact box not matched")
	}
	if !sc.InBox(20, 20, 68, 68) {
		t.Fatal("majority-overlap box not matched")
	}
	if sc.InBox(50, 50, 98, 98) {
		t.Fatal("minor-overlap box matched")
	}
	if sc.InBox(100, 100, 148, 148) {
		t.Fatal("disjoint box matched")
	}
	if sc.InBox(5, 5, 5, 5) {
		t.Fatal("degenerate box matched")
	}
}

func TestSceneDeterministic(t *testing.T) {
	a := GenerateScene(120, 120, 40, 2, 7)
	b := GenerateScene(120, 120, 40, 2, 7)
	if !a.Image.Equal(b.Image) {
		t.Fatal("scenes differ for same seed")
	}
}

func BenchmarkRenderFace48(b *testing.B) {
	r := hv.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RenderFace(48, 48, Happy, r)
	}
}

func BenchmarkRenderNonFace48(b *testing.B) {
	r := hv.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RenderNonFace(48, 48, r)
	}
}
