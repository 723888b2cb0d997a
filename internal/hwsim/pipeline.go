package hwsim

import (
	"fmt"
	"sort"
	"strings"
)

// PipeSim refines the flat Platform.Run cost model into a phase-level
// pipeline simulation — the "cycle-accurate simulator" role of the paper's
// methodology. A workload is a sequence of dependent phases (e.g. encode ->
// feature -> similarity); within one phase the platform's functional units
// run concurrently:
//
//   - On a spatial datapath (FPGA), unit classes operate in parallel, so a
//     phase takes as long as its busiest unit class plus the pipeline fill
//     latency. The slowest class is the bottleneck the report names.
//   - On a shared-issue CPU, all ops contend for the issue ports, so a
//     phase costs the sum of its per-class cycles (the flat model), still
//     reported with per-class shares.
type PipeSim struct {
	P Platform
	// Parallel marks a spatial datapath (unit classes overlap within a
	// phase).
	Parallel bool
	// FillLatency is the pipeline depth charged once per phase (cycles).
	FillLatency float64
}

// NewFPGASim wraps an FPGA-like platform (spatial, deep pipelines).
func NewFPGASim(p Platform) PipeSim {
	return PipeSim{P: p, Parallel: true, FillLatency: 64}
}

// Phase is one named dependency step of a workload.
type Phase struct {
	Name  string
	Trace Trace
}

// PhaseReport prices one phase.
type PhaseReport struct {
	Name        string
	Cycles      float64
	Bottleneck  OpClass
	Utilization map[OpClass]float64 // busy fraction per unit class
	DynamicJ    float64
}

// PipeReport prices a whole workload.
type PipeReport struct {
	Platform string
	Phases   []PhaseReport
	Cycles   float64
	Seconds  float64
	DynamicJ float64
	StaticJ  float64
}

// Joules returns total energy.
func (r PipeReport) Joules() float64 { return r.DynamicJ + r.StaticJ }

// Run simulates the phases in order.
func (s PipeSim) Run(phases []Phase) PipeReport {
	rep := PipeReport{Platform: s.P.Name}
	for _, ph := range phases {
		pr := PhaseReport{Name: ph.Name, Utilization: map[OpClass]float64{}}
		var busiest float64
		var sum float64
		for op, n := range ph.Trace {
			if n == 0 {
				continue
			}
			thr := s.P.Throughput[op]
			if thr == 0 {
				thr = 0.1
			}
			c := float64(n) / thr
			sum += c
			if c > busiest {
				busiest = c
				pr.Bottleneck = op
			}
			pr.Utilization[op] = c // busy cycles; normalised below
			pr.DynamicJ += float64(n) * s.P.EnergyPJ[op] * 1e-12
		}
		if s.Parallel {
			pr.Cycles = busiest + s.FillLatency
		} else {
			pr.Cycles = sum + s.FillLatency
		}
		if pr.Cycles > 0 {
			for op, busy := range pr.Utilization {
				pr.Utilization[op] = busy / pr.Cycles
			}
		}
		rep.Phases = append(rep.Phases, pr)
		rep.Cycles += pr.Cycles
		rep.DynamicJ += pr.DynamicJ
	}
	rep.Seconds = rep.Cycles / s.P.FreqHz
	rep.StaticJ = s.P.StaticWatts * rep.Seconds
	return rep
}

// String renders a per-phase bottleneck table.
func (r PipeReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %.3g cycles, %.3g s, %.3g J\n", r.Platform, r.Cycles, r.Seconds, r.Joules())
	for _, ph := range r.Phases {
		fmt.Fprintf(&b, "  %-12s %12.3g cycles  bottleneck %-7s", ph.Name, ph.Cycles, ph.Bottleneck)
		// Top unit utilisations, sorted.
		type kv struct {
			op OpClass
			u  float64
		}
		var us []kv
		for op, u := range ph.Utilization {
			us = append(us, kv{op, u})
		}
		sort.Slice(us, func(i, j int) bool { return us[i].u > us[j].u })
		for i, x := range us {
			if i == 3 {
				break
			}
			fmt.Fprintf(&b, "  %s:%.0f%%", x.op, x.u*100)
		}
		b.WriteString("\n")
	}
	return b.String()
}
