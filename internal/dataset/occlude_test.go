package dataset

import (
	"testing"

	"hdface/internal/hv"
)

func TestOcclude(t *testing.T) {
	r := hv.NewRNG(6)
	img := RenderFace(32, 32, Happy, r)
	occ := Occlude(img, 0.25, r)
	if occ == img {
		t.Fatal("Occlude returned original pointer")
	}
	changed := 0
	for i := range img.Pix {
		if img.Pix[i] != occ.Pix[i] {
			changed++
		}
	}
	// Roughly a quarter of the pixels should be covered.
	frac := float64(changed) / float64(len(img.Pix))
	if frac < 0.1 || frac > 0.45 {
		t.Fatalf("occluded fraction %v, want ~0.25", frac)
	}
	// Zero and over-range fractions behave.
	if !Occlude(img, 0, r).Equal(img) {
		t.Fatal("frac=0 changed image")
	}
	full := Occlude(img, 2, r)
	if full.Equal(img) {
		t.Fatal("frac>1 changed nothing")
	}
}
