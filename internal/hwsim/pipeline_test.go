package hwsim

import (
	"math"
	"strings"
	"testing"
)

func TestPipeSerialSumsVsParallelMaxes(t *testing.T) {
	p := Platform{Name: "test", FreqHz: 1e9}
	p.Throughput[OpWord64] = 2
	p.Throughput[OpPop64] = 1
	p.EnergyPJ[OpWord64] = 1
	p.EnergyPJ[OpPop64] = 1
	phases := []Phase{{Name: "x", Trace: Trace{OpWord64: 200, OpPop64: 100}}}

	serial := PipeSim{P: p}.Run(phases)
	parallel := PipeSim{P: p, Parallel: true}.Run(phases)
	// Serial: 100 + 100 cycles; parallel: max(100, 100).
	if serial.Cycles != 200 {
		t.Fatalf("serial cycles %v, want 200", serial.Cycles)
	}
	if parallel.Cycles != 100 {
		t.Fatalf("parallel cycles %v, want 100", parallel.Cycles)
	}
	// Same dynamic energy either way.
	if serial.DynamicJ != parallel.DynamicJ {
		t.Fatal("dynamic energy should not depend on scheduling")
	}
}

func TestPipeFillLatency(t *testing.T) {
	p := Platform{Name: "test", FreqHz: 1e9}
	p.Throughput[OpWord64] = 1
	sim := PipeSim{P: p, FillLatency: 50}
	r := sim.Run([]Phase{{Name: "a", Trace: Trace{OpWord64: 10}}, {Name: "b", Trace: Trace{OpWord64: 10}}})
	if r.Cycles != 10+50+10+50 {
		t.Fatalf("cycles %v, want 120", r.Cycles)
	}
}

func TestPipeBottleneckIdentified(t *testing.T) {
	p := Platform{Name: "test", FreqHz: 1e9}
	p.Throughput[OpWord64] = 100
	p.Throughput[OpRand64] = 1
	sim := PipeSim{P: p, Parallel: true}
	r := sim.Run([]Phase{{Name: "mask", Trace: Trace{OpWord64: 1000, OpRand64: 500}}})
	if r.Phases[0].Bottleneck != OpRand64 {
		t.Fatalf("bottleneck %v, want rand64", r.Phases[0].Bottleneck)
	}
	// Bottleneck unit runs at ~100% utilisation (minus fill).
	if u := r.Phases[0].Utilization[OpRand64]; u < 0.9 {
		t.Fatalf("bottleneck utilisation %v", u)
	}
	if u := r.Phases[0].Utilization[OpWord64]; u > 0.1 {
		t.Fatalf("non-bottleneck utilisation %v too high", u)
	}
}

func TestPipeUnmappedOpPenalised(t *testing.T) {
	p := Platform{Name: "bare", FreqHz: 1e9}
	r := PipeSim{P: p}.Run([]Phase{{Name: "x", Trace: Trace{OpFloatAtan: 10}}})
	if r.Cycles != 100 {
		t.Fatalf("fallback cycles %v, want 100", r.Cycles)
	}
}

func TestPipeEnergyAccounting(t *testing.T) {
	p := Platform{Name: "test", FreqHz: 1e9, StaticWatts: 1}
	p.Throughput[OpWord64] = 1
	p.EnergyPJ[OpWord64] = 1000 // 1 nJ
	r := PipeSim{P: p}.Run([]Phase{{Name: "x", Trace: Trace{OpWord64: 1e6}}})
	if math.Abs(r.DynamicJ-1e-3) > 1e-12 {
		t.Fatalf("dynamic %v, want 1e-3", r.DynamicJ)
	}
	if r.StaticJ <= 0 || r.Joules() <= r.DynamicJ {
		t.Fatal("static energy missing")
	}
}

func TestPipeReportString(t *testing.T) {
	sim := NewFPGASim(Kintex7())
	r := sim.Run([]Phase{
		{Name: "feature", Trace: Trace{OpWord64: 1 << 16, OpRand64: 1 << 14}},
		{Name: "search", Trace: Trace{OpPop64: 1 << 12}},
	})
	s := r.String()
	for _, want := range []string{"feature", "search", "bottleneck"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
}

func TestPipeParallelNeverSlowerThanSerial(t *testing.T) {
	fpga := Kintex7()
	phases := []Phase{{Name: "x", Trace: Trace{
		OpWord64: 1 << 20, OpPop64: 1 << 18, OpRand64: 1 << 16, OpMAC16: 1 << 14}}}
	serial := PipeSim{P: fpga, FillLatency: 64}.Run(phases)
	parallel := PipeSim{P: fpga, Parallel: true, FillLatency: 64}.Run(phases)
	if parallel.Cycles > serial.Cycles {
		t.Fatalf("parallel %v slower than serial %v", parallel.Cycles, serial.Cycles)
	}
}
