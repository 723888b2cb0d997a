// Package imgproc provides the grayscale image substrate HDFace operates
// on: an 8-bit image type, geometric and intensity transforms, drawing
// primitives used by the procedural dataset renderer, and PGM
// serialisation for the Figure 6 visualiser.
package imgproc

import (
	"errors"
	"fmt"
)

// Image is an 8-bit grayscale raster with row-major storage. 0 is black and
// 255 is white, matching the paper's n = 8 bit convention.
type Image struct {
	W, H int
	Pix  []uint8
}

// NewImage returns a black image of the given size.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic("imgproc: image dimensions must be positive")
	}
	return &Image{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y); out-of-bounds reads clamp to the edge,
// which is the boundary handling HOG gradient windows rely on.
func (m *Image) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	} else if x >= m.W {
		x = m.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= m.H {
		y = m.H - 1
	}
	return m.Pix[y*m.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are dropped.
func (m *Image) Set(x, y int, v uint8) {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		return
	}
	m.Pix[y*m.W+x] = v
}

// Fill sets every pixel to v.
func (m *Image) Fill(v uint8) {
	for i := range m.Pix {
		m.Pix[i] = v
	}
}

// Clone deep-copies the image.
func (m *Image) Clone() *Image {
	c := NewImage(m.W, m.H)
	copy(c.Pix, m.Pix)
	return c
}

// Norm returns the pixel at (x, y) normalised to [0, 1], the range the
// stochastic hypervector representation stores.
func (m *Image) Norm(x, y int) float64 {
	return float64(m.At(x, y)) / 255
}

// Crop returns a copy of the rectangle [x0, x0+w) x [y0, y0+h); regions
// outside the source are edge-clamped.
func (m *Image) Crop(x0, y0, w, h int) *Image {
	out := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Pix[y*w+x] = m.At(x0+x, y0+y)
		}
	}
	return out
}

// Resize returns the image scaled to (w, h) with bilinear interpolation.
func (m *Image) Resize(w, h int) *Image {
	out := NewImage(w, h)
	if w == m.W && h == m.H {
		copy(out.Pix, m.Pix)
		return out
	}
	sx := float64(m.W) / float64(w)
	sy := float64(m.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := (float64(y)+0.5)*sy - 0.5
		y0 := int(fy)
		if fy < 0 {
			y0 = 0
		}
		dy := fy - float64(y0)
		if dy < 0 {
			dy = 0
		}
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*sx - 0.5
			x0 := int(fx)
			if fx < 0 {
				x0 = 0
			}
			dx := fx - float64(x0)
			if dx < 0 {
				dx = 0
			}
			p00 := float64(m.At(x0, y0))
			p10 := float64(m.At(x0+1, y0))
			p01 := float64(m.At(x0, y0+1))
			p11 := float64(m.At(x0+1, y0+1))
			v := p00*(1-dx)*(1-dy) + p10*dx*(1-dy) + p01*(1-dx)*dy + p11*dx*dy
			out.Pix[y*w+x] = clampU8(v)
		}
	}
	return out
}

func clampU8(v float64) uint8 {
	switch {
	case v <= 0:
		return 0
	case v >= 255:
		return 255
	}
	return uint8(v + 0.5)
}

// Mean returns the average pixel value.
func (m *Image) Mean() float64 {
	var s float64
	for _, p := range m.Pix {
		s += float64(p)
	}
	return s / float64(len(m.Pix))
}

// Equal reports whether two images have identical size and pixels.
func (m *Image) Equal(o *Image) bool {
	if m.W != o.W || m.H != o.H {
		return false
	}
	for i := range m.Pix {
		if m.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// Validate checks structural invariants and is used by decoding paths.
func (m *Image) Validate() error {
	if m.W <= 0 || m.H <= 0 {
		return errors.New("imgproc: non-positive dimensions")
	}
	if len(m.Pix) != m.W*m.H {
		return fmt.Errorf("imgproc: pixel buffer %d != %dx%d", len(m.Pix), m.W, m.H)
	}
	return nil
}
