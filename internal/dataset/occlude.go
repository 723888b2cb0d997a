package dataset

import (
	"math"

	"hdface/internal/hv"
	"hdface/internal/imgproc"
)

// Occlude paints a random opaque rectangle covering roughly frac of the
// image area — the "corrupted data" condition the paper's robustness
// claims cover (sunglasses, masks, sensor dropout).
func Occlude(img *imgproc.Image, frac float64, r *hv.RNG) *imgproc.Image {
	out := img.Clone()
	if frac <= 0 {
		return out
	}
	if frac > 1 {
		frac = 1
	}
	// A rectangle with aspect jitter whose area is frac of the image.
	area := frac * float64(img.W) * float64(img.H)
	aspect := 0.5 + r.Float64()
	w := int(math.Sqrt(area * aspect))
	h := int(area / float64(max(1, w)))
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	x := r.Intn(max(1, img.W-w+1))
	y := r.Intn(max(1, img.H-h+1))
	shade := uint8(r.Intn(60)) // dark occluder
	out.FillRect(x, y, x+w, y+h, shade)
	return out
}
