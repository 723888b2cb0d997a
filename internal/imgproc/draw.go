package imgproc

import "math"

// Drawing primitives for the procedural dataset renderer and the Figure 6
// visualiser. All coordinates are float64 so the renderer can place facial
// features with sub-pixel jitter; rasterisation rounds per pixel.

// FillEllipse paints the filled ellipse centred at (cx, cy) with semi-axes
// (rx, ry), rotated by theta radians, in colour v.
func (m *Image) FillEllipse(cx, cy, rx, ry, theta float64, v uint8) {
	if rx <= 0 || ry <= 0 {
		return
	}
	// Conservative bounding box of the rotated ellipse.
	r := math.Max(rx, ry)
	x0, x1 := int(cx-r)-1, int(cx+r)+1
	y0, y1 := int(cy-r)-1, int(cy+r)+1
	sin, cos := math.Sincos(theta)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			u := dx*cos + dy*sin
			w := -dx*sin + dy*cos
			if u*u/(rx*rx)+w*w/(ry*ry) <= 1 {
				m.Set(x, y, v)
			}
		}
	}
}

// Line draws a straight segment of the given thickness from (x0, y0) to
// (x1, y1).
func (m *Image) Line(x0, y0, x1, y1, thick float64, v uint8) {
	dx, dy := x1-x0, y1-y0
	length := math.Hypot(dx, dy)
	if length == 0 {
		m.FillEllipse(x0, y0, thick/2+0.5, thick/2+0.5, 0, v)
		return
	}
	steps := int(length*2) + 1
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		m.FillEllipse(x0+t*dx, y0+t*dy, thick/2+0.5, thick/2+0.5, 0, v)
	}
}

// Arc draws a circular arc centred at (cx, cy) of radius r between angles
// a0 and a1 (radians, increasing counterclockwise in image coordinates)
// with the given stroke thickness. It renders mouths and eyebrows.
func (m *Image) Arc(cx, cy, r, a0, a1, thick float64, v uint8) {
	if r <= 0 {
		return
	}
	span := a1 - a0
	steps := int(math.Abs(span)*r) + 2
	for i := 0; i <= steps; i++ {
		a := a0 + span*float64(i)/float64(steps)
		x := cx + r*math.Cos(a)
		y := cy + r*math.Sin(a)
		m.FillEllipse(x, y, thick/2+0.5, thick/2+0.5, 0, v)
	}
}

// FillRect paints the axis-aligned rectangle [x0, x1) x [y0, y1).
func (m *Image) FillRect(x0, y0, x1, y1 int, v uint8) {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			m.Set(x, y, v)
		}
	}
}

// StrokeRect outlines the axis-aligned rectangle with a 1-pixel border —
// used by the detection visualiser to mark windows.
func (m *Image) StrokeRect(x0, y0, x1, y1 int, v uint8) {
	for x := x0; x < x1; x++ {
		m.Set(x, y0, v)
		m.Set(x, y1-1, v)
	}
	for y := y0; y < y1; y++ {
		m.Set(x0, y, v)
		m.Set(x1-1, y, v)
	}
}

// GradientFill fills the image with a linear brightness ramp from v0 at
// (x0, y0) to v1 at (x1, y1), simulating illumination variation.
func (m *Image) GradientFill(x0, y0, x1, y1 float64, v0, v1 uint8) {
	dx, dy := x1-x0, y1-y0
	den := dx*dx + dy*dy
	if den == 0 {
		m.Fill(v0)
		return
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			t := ((float64(x)-x0)*dx + (float64(y)-y0)*dy) / den
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
			m.Pix[y*m.W+x] = clampU8(float64(v0) + t*(float64(v1)-float64(v0)))
		}
	}
}

// Blend alpha-composites src over m at offset (ox, oy): out = (1-a)*dst +
// a*src, where a is constant. Used to paste rendered faces into scenes.
func (m *Image) Blend(src *Image, ox, oy int, a float64) {
	if a < 0 {
		a = 0
	} else if a > 1 {
		a = 1
	}
	for y := 0; y < src.H; y++ {
		ty := oy + y
		if ty < 0 || ty >= m.H {
			continue
		}
		for x := 0; x < src.W; x++ {
			tx := ox + x
			if tx < 0 || tx >= m.W {
				continue
			}
			d := float64(m.Pix[ty*m.W+tx])
			s := float64(src.Pix[y*src.W+x])
			m.Pix[ty*m.W+tx] = clampU8((1-a)*d + a*s)
		}
	}
}

// BoxBlur applies an r-radius box filter (separable, two passes), softening
// the procedural renders so edges are not unnaturally crisp.
func (m *Image) BoxBlur(r int) *Image {
	if r <= 0 {
		return m.Clone()
	}
	tmp := NewImage(m.W, m.H)
	out := NewImage(m.W, m.H)
	win := 2*r + 1
	// Horizontal pass.
	for y := 0; y < m.H; y++ {
		var acc int
		for x := -r; x <= r; x++ {
			acc += int(m.At(x, y))
		}
		for x := 0; x < m.W; x++ {
			tmp.Pix[y*m.W+x] = uint8(acc / win)
			acc += int(m.At(x+r+1, y)) - int(m.At(x-r, y))
		}
	}
	// Vertical pass.
	for x := 0; x < m.W; x++ {
		var acc int
		for y := -r; y <= r; y++ {
			acc += int(tmp.At(x, y))
		}
		for y := 0; y < m.H; y++ {
			out.Pix[y*m.W+x] = uint8(acc / win)
			acc += int(tmp.At(x, y+r+1)) - int(tmp.At(x, y-r))
		}
	}
	return out
}
