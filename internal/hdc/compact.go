package hdc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"hdface/internal/hv"
)

// Compact model serialisation ("HDC2"). Where Save/Load gob-encode the full
// float64 accumulators (8 bytes per dimension per class), the compact form
// stores each class as a single float64 scale plus int16 quantised
// accumulators, followed by the binarised class vectors verbatim. At D=2048,
// K=2 that is ~8.5 KB against ~66 KB for the float form — small enough that a
// multi-tenant store can keep thousands of versions resident as raw blobs and
// rematerialize models (and their bases, which are never stored at all) on
// demand.
//
// Exactness contract: the Bin words round-trip bit-for-bit, so every scoring
// path that consumes only the binarised memory (Hamming and the fused
// rematerializing kernels) produces byte-identical scores from a compact
// round-trip. The float accumulators are lossy: dequantisation yields
// q*scale with relative error ≤ ~1/32767. That reaches cosine scoring, which
// is what /predict and /detect serve, and further online training;
// TestCompactPredictAgreement pins that cosine predictions survive it.

// compactMagic prefixes the compact wire form; geometry is validated before
// any payload-proportional allocation, mirroring Load.
var compactMagic = [4]byte{'H', 'D', 'C', '2'}

// Compact bounds are deliberately tighter than maxWireD/maxWireK: the format
// exists to keep thousands of models resident, so a single class is capped at
// a few MB of decoded accumulator. The paper's configurations stop at
// D=10240, K=7.
const (
	maxCompactD = 1 << 22
	maxCompactK = 1 << 12

	compactQMax = 32767 // symmetric int16 range; -32768 is never written
)

// Flag bits in the compact header.
const (
	compactHasQuant = 1 << 0
	compactHasBin   = 1 << 1
)

// CompactSize returns the exact encoded size in bytes of the compact form of
// a d-dimensional, k-class model with binarised memory present.
func CompactSize(d, k int) int {
	words := (d + 63) / 64
	return 4 + 4 + 4 + 1 + k*(8+2*d) + k*8*words
}

// SaveCompact writes the model in the compact quantised form. Non-finite
// accumulator values are rejected (they could not be re-quantised and would
// poison cosine scoring after a round-trip).
func (m *Model) SaveCompact(w io.Writer) error {
	if m.D <= 0 || m.D > maxCompactD || m.K < 2 || m.K > maxCompactK {
		return fmt.Errorf("hdc: geometry d=%d k=%d out of compact-form bounds", m.D, m.K)
	}
	if len(m.Classes) != m.K {
		return errors.New("hdc: model has malformed class accumulators")
	}
	var flags byte = compactHasQuant
	if m.Bin != nil {
		if len(m.Bin) != m.K {
			return errors.New("hdc: model has malformed binarised classes")
		}
		flags |= compactHasBin
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(compactMagic[:]); err != nil {
		return err
	}
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(m.D))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(m.K))
	hdr[8] = flags
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	// Per class: scale (float64 bits) then D little-endian int16s with
	// q = round(a/scale), so a ≈ q*scale on decode.
	buf := make([]byte, 2*m.D)
	for _, acc := range m.Classes {
		if len(acc) != m.D {
			return errors.New("hdc: model has malformed class accumulators")
		}
		maxAbs := 0.0
		for _, a := range acc {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return errors.New("hdc: non-finite class accumulator value")
			}
			if ab := math.Abs(a); ab > maxAbs {
				maxAbs = ab
			}
		}
		scale := 0.0
		if maxAbs > 0 {
			scale = maxAbs / compactQMax
		}
		var sb [8]byte
		binary.LittleEndian.PutUint64(sb[:], math.Float64bits(scale))
		if _, err := bw.Write(sb[:]); err != nil {
			return err
		}
		for i, a := range acc {
			q := 0.0
			if scale > 0 {
				q = math.Round(a / scale)
			}
			if q > compactQMax {
				q = compactQMax
			} else if q < -compactQMax {
				q = -compactQMax
			}
			binary.LittleEndian.PutUint16(buf[2*i:], uint16(int16(q)))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	if flags&compactHasBin != 0 {
		words := (m.D + 63) / 64
		wb := make([]byte, 8*words)
		for _, v := range m.Bin {
			ws := v.Words()
			if v.D() != m.D || len(ws) != words {
				return errors.New("hdc: binarised class geometry mismatch")
			}
			for i, w64 := range ws {
				binary.LittleEndian.PutUint64(wb[8*i:], w64)
			}
			if _, err := bw.Write(wb); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadCompact reads a model written by SaveCompact. The header's geometry is
// bounds-checked before anything payload-proportional is allocated, and every
// subsequent read is an io.ReadFull of a size derived from that validated
// geometry — a truncated, bit-flipped or hostile blob errors out without
// panicking and without allocating beyond what the (bounded) header
// justifies. Decoded scales must be finite and non-negative.
func LoadCompact(r io.Reader) (*Model, error) {
	var m4 [4]byte
	if _, err := io.ReadFull(r, m4[:]); err != nil {
		return nil, fmt.Errorf("hdc: compact header: %w", err)
	}
	if m4 != compactMagic {
		return nil, errors.New("hdc: bad compact-model magic")
	}
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("hdc: compact header: %w", err)
	}
	d := int(binary.LittleEndian.Uint32(hdr[0:4]))
	k := int(binary.LittleEndian.Uint32(hdr[4:8]))
	flags := hdr[8]
	if d <= 0 || d > maxCompactD || k < 2 || k > maxCompactK {
		return nil, fmt.Errorf("hdc: implausible compact header d=%d k=%d", d, k)
	}
	if flags&compactHasQuant == 0 || flags&^(compactHasQuant|compactHasBin) != 0 {
		return nil, fmt.Errorf("hdc: unsupported compact flags %#x", flags)
	}
	m := &Model{D: d, K: k, Classes: make([][]float64, k)}
	buf := make([]byte, 2*d)
	for c := 0; c < k; c++ {
		var sb [8]byte
		if _, err := io.ReadFull(r, sb[:]); err != nil {
			return nil, fmt.Errorf("hdc: compact class %d: %w", c, err)
		}
		scale := math.Float64frombits(binary.LittleEndian.Uint64(sb[:]))
		if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
			return nil, fmt.Errorf("hdc: compact class %d: invalid scale", c)
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("hdc: compact class %d: %w", c, err)
		}
		acc := make([]float64, d)
		for i := range acc {
			q := int16(binary.LittleEndian.Uint16(buf[2*i:]))
			acc[i] = float64(q) * scale
		}
		m.Classes[c] = acc
	}
	if flags&compactHasBin != 0 {
		words := (d + 63) / 64
		wb := make([]byte, 8*words)
		m.Bin = make([]*hv.Vector, 0, k)
		for c := 0; c < k; c++ {
			if _, err := io.ReadFull(r, wb); err != nil {
				return nil, fmt.Errorf("hdc: compact bin class %d: %w", c, err)
			}
			ws := make([]uint64, words)
			for i := range ws {
				ws[i] = binary.LittleEndian.Uint64(wb[8*i:])
			}
			v, err := hv.FromWords(d, ws)
			if err != nil {
				return nil, fmt.Errorf("hdc: compact bin class %d: %w", c, err)
			}
			m.Bin = append(m.Bin, v)
		}
	}
	return m, nil
}
