// Package fault is the chaos harness of the robustness study: it injects
// bit faults into the live memories of the HDFace detection service — the
// binarised class hypervectors of a trained hdc.Model and the cached
// cell-hypervector grids of the hyperspace HOG extractor — and drives the
// self-repair pass that re-consolidates class memory from retained
// training features.
//
// Two fault species are modelled. Transient faults are independent bit
// flips (an SEU, a read disturb): a rewrite of the memory clears them, so
// self-repair removes them entirely. Stuck-at faults are latched cells that
// hold a value regardless of writes: the harness remembers each stuck
// (class, bit, value) and re-imposes it after every repair, so repaired
// accuracy converges to the stuck-at floor rather than the clean model.
//
// Every fault pattern is drawn from a seed-keyed substream (hv.Mix64), so
// a scenario replays bit-for-bit. A Harness is not safe for concurrent use;
// the grid hook it hands out is only ever called from the serial
// level-preparation phase of a detection sweep.
package fault

import (
	"hdface/internal/hdc"
	"hdface/internal/hdhog"
	"hdface/internal/hv"
	"hdface/internal/noise"
	"hdface/internal/obs"
)

// Observability series for the chaos harness. They record nothing unless
// obs is enabled.
var (
	obsModelFlips = obs.NewCounter("hdface_fault_model_bits_flipped_total", "transient bit faults injected into class hypervectors")
	obsStuckBits  = obs.NewCounter("hdface_fault_stuck_bits_total", "stuck-at faults latched onto class hypervector cells")
	obsGridFlips  = obs.NewCounter("hdface_fault_grid_bits_flipped_total", "bit faults injected into cached cell-grid hypervectors")
	obsRepairs    = obs.NewCounter("hdface_fault_repair_passes_total", "self-repair passes run")
)

// Seed salts separating the harness's fault substreams.
const (
	saltModel = 0xb17f
	saltGrid  = 0x611d
	saltFeat  = 0xfea7
)

// Plan describes one fault scenario.
type Plan struct {
	// BER is the per-bit fault probability of one injection pass.
	BER float64
	// StuckFrac is the fraction of faulty bits that are stuck-at rather
	// than transient: 0 models pure soft errors, 1 pure latched defects.
	StuckFrac float64
	// Seed keys every fault substream.
	Seed uint64
}

// Stats accumulates what the harness did.
type Stats struct {
	Transient int // transient bit flips applied to class hypervectors
	Stuck     int // stuck-at faults latched onto class hypervectors
	GridBits  int // bit flips applied to cached cell grids
	Grids     int // cell grids corrupted
	Repairs   int // self-repair passes run
}

// stuckBit is one latched class-memory cell; val is the held sign (+1/-1),
// matching hv.Vector's Bit/SetBit convention.
type stuckBit struct {
	class, pos, val int
}

// Harness injects the plan's faults and tracks latched cells.
type Harness struct {
	plan    Plan
	stats   Stats
	stuck   []stuckBit
	inj     *noise.Injector // feature-vector injection substreams
	gridSeq uint64
}

// New returns a harness executing plan.
func New(plan Plan) *Harness {
	return &Harness{plan: plan, inj: noise.New(hv.Mix64(plan.Seed, saltFeat))}
}

// Stats returns what the harness has done so far.
func (h *Harness) Stats() Stats { return h.stats }

// InjectModel corrupts the binarised class memory of m in place: each bit
// of each class hypervector faults independently with probability BER, and
// each faulty bit is latched stuck-at its flipped value with probability
// StuckFrac. The per-class fault pattern is a pure function of (Seed,
// class), so repeated injections into fresh copies corrupt identically.
// Finalize must have been called. Returns (transient, stuck) fault counts.
func (h *Harness) InjectModel(m *hdc.Model) (transient, stuck int) {
	if m.Bin == nil {
		panic("fault: InjectModel before Finalize")
	}
	if h.plan.BER <= 0 {
		return 0, 0
	}
	for c, v := range m.Bin {
		r := hv.NewRNG(hv.Mix64(h.plan.Seed^saltModel, uint64(c)))
		for i := 0; i < m.D; i++ {
			if r.Float64() >= h.plan.BER {
				continue
			}
			val := -v.Bit(i)
			v.SetBit(i, val)
			if r.Float64() < h.plan.StuckFrac {
				h.stuck = append(h.stuck, stuckBit{class: c, pos: i, val: val})
				stuck++
			} else {
				transient++
			}
		}
	}
	h.stats.Transient += transient
	h.stats.Stuck += stuck
	obsModelFlips.Add(int64(transient))
	obsStuckBits.Add(int64(stuck))
	return transient, stuck
}

// ReapplyStuck re-imposes every latched stuck-at fault onto m's class
// memory — the write that "fixes" a stuck cell does not take. Returns how
// many cells disagreed with their stuck value and were overwritten.
func (h *Harness) ReapplyStuck(m *hdc.Model) int {
	if m.Bin == nil {
		return 0
	}
	forced := 0
	for _, s := range h.stuck {
		v := m.Bin[s.class]
		if v.Bit(s.pos) != s.val {
			v.SetBit(s.pos, s.val)
			forced++
		}
	}
	return forced
}

// Repair runs the self-repair pass: the class memory is rebuilt by
// majority re-bundling of retained training features
// (hdc.Model.Reconsolidate), which clears every transient fault, and the
// latched stuck-at faults are re-imposed — repair rewrites memory cells,
// it cannot fix broken ones. Returns the number of classes rebuilt.
func (h *Harness) Repair(m *hdc.Model, features []*hv.Vector, labels []int) int {
	rebuilt := m.Reconsolidate(features, labels, h.plan.Seed)
	h.ReapplyStuck(m)
	h.stats.Repairs++
	obsRepairs.Inc()
	return rebuilt
}

// BeginSweep resets the grid fault sequence, so the grids of the next
// detection sweep draw the same fault patterns as the last one's: grid g
// of every sweep is corrupted identically, which models latched defects in
// the level-grid buffers a streaming detector reuses frame after frame.
func (h *Harness) BeginSweep() { h.gridSeq = 0 }

// GridHook returns the corruption hook to install as a detection scorer's
// OnGrid callback (nil when the plan injects nothing): each freshly
// extracted cell grid has every cached cell hypervector flipped at BER,
// from a substream keyed on (Seed, grid sequence number). The hook runs in
// the sweep's serial level-preparation phase.
func (h *Harness) GridHook() func(*hdhog.CellGrid) {
	if h.plan.BER <= 0 {
		return nil
	}
	return func(g *hdhog.CellGrid) {
		seq := h.gridSeq
		h.gridSeq++
		inj := noise.New(hv.Mix64(h.plan.Seed^saltGrid, seq))
		flips := 0
		for gi, cb := range g.Cells {
			for b, v := range cb.Vecs {
				if v == nil {
					continue
				}
				flips += inj.FlipVectorAt(v, uint64(gi*len(cb.Vecs)+b), h.plan.BER)
			}
		}
		h.stats.GridBits += flips
		h.stats.Grids++
		obsGridFlips.Add(int64(flips))
	}
}
