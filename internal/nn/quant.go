package nn

import (
	"fmt"
	"math"
)

// Quantized is a fixed-point snapshot of an MLP: every weight is stored as
// a signed integer code of the configured bit width with a per-tensor
// scale. Inference runs on the dequantised values; the integer codes are
// the bit-level substrate Table 2's fault injection flips and the hardware
// model prices.
type Quantized struct {
	Bits   int
	Cfg    Config
	codes  [][]int32 // per tensor
	scales []float64 // per tensor: weight = code * scale
	mlp    *MLP      // geometry donor for inference
}

// Quantize snapshots the model at the given weight precision (16, 8 or 4
// bits).
func Quantize(m *MLP, bits int) (*Quantized, error) {
	switch bits {
	case 16, 8, 4:
	default:
		return nil, fmt.Errorf("nn: unsupported precision %d bits", bits)
	}
	q := &Quantized{Bits: bits, Cfg: m.Cfg}
	maxCode := float64(int32(1)<<(bits-1) - 1)
	for _, tensor := range m.Layers() {
		var amax float64
		for _, w := range tensor {
			if a := math.Abs(w); a > amax {
				amax = a
			}
		}
		scale := amax / maxCode
		if scale == 0 {
			scale = 1
		}
		codes := make([]int32, len(tensor))
		for i, w := range tensor {
			c := math.Round(w / scale)
			if c > maxCode {
				c = maxCode
			} else if c < -maxCode {
				c = -maxCode
			}
			codes[i] = int32(c)
		}
		q.codes = append(q.codes, codes)
		q.scales = append(q.scales, scale)
	}
	// Build a geometry clone whose weights will be refreshed on Sync.
	clone, err := New(m.Cfg)
	if err != nil {
		return nil, err
	}
	q.mlp = clone
	q.Sync()
	return q, nil
}

// Sync dequantises the integer codes back into the inference network. Call
// after mutating Codes (e.g. fault injection).
func (q *Quantized) Sync() {
	tensors := q.mlp.Layers()
	for t, codes := range q.codes {
		dst := tensors[t]
		s := q.scales[t]
		for i, c := range codes {
			dst[i] = float64(c) * s
		}
	}
}

// Codes exposes the integer weight codes for fault injection. After
// mutation, call Sync before Accuracy.
func (q *Quantized) Codes() [][]int32 { return q.codes }

// Accuracy evaluates the quantised model.
func (q *Quantized) Accuracy(xs [][]float64, ys []int) float64 {
	return q.mlp.Accuracy(xs, ys)
}

// WeightBits returns the total number of weight bits in the model — the
// fault-injection surface.
func (q *Quantized) WeightBits() int64 {
	var n int64
	for _, codes := range q.codes {
		n += int64(len(codes)) * int64(q.Bits)
	}
	return n
}

// FlipBit flips bit b (0 = LSB) of weight code i in tensor t, in two's
// complement within the configured width.
func (q *Quantized) FlipBit(t, i, b int) {
	if b < 0 || b >= q.Bits {
		panic("nn: bit index out of range")
	}
	mask := int32(1) << uint(b)
	// Work in the bits-wide two's complement domain.
	width := uint(q.Bits)
	v := q.codes[t][i] & (1<<width - 1) // truncate to width
	v ^= mask
	// Sign-extend back.
	if v&(1<<(width-1)) != 0 {
		v |= ^int32(0) << width
	}
	q.codes[t][i] = v
}
