// Package hwsim models the two embedded platforms of the paper's
// evaluation — an ARM Cortex A53-class CPU and a Kintex-7-class FPGA — as
// analytic cycle/energy engines driven by exact operation counts collected
// from the algorithm implementations. The real study measured wall time and
// a power meter; the shape of its results (who wins, and why the FPGA
// amplifies HDC's advantage) is determined by the operation mix, which this
// model prices explicitly:
//
//   - HDC work is 64-bit word logic, popcounts and RNG words. On the CPU
//     these run a couple per cycle; on the FPGA they map onto the sea of
//     LUTs, thousands of word-lanes wide.
//   - DNN and classical-HOG work is multiply-accumulate and transcendental
//     float math. The CPU runs a few MACs per cycle through NEON; the FPGA
//     must route them through its limited DSP48 slices.
//
// Throughput and energy constants are calibrated against public A53 and
// Kintex-7 figures (see DESIGN.md) and are deliberately conservative for
// HDC on the CPU.
package hwsim

import (
	"hdface/internal/hog"
	"hdface/internal/nn"
	"hdface/internal/stoch"
)

// OpClass enumerates the priced operation classes.
type OpClass int

// Operation classes. Word ops process one 64-bit word.
const (
	OpWord64    OpClass = iota // XOR/AND/OR/select word logic
	OpPop64                    // 64-bit popcount
	OpRand64                   // one 64-bit PRNG word
	OpPerm64                   // permutation/rotation word
	OpIntAcc                   // one 32-bit integer accumulate
	OpMAC32                    // float32 multiply-accumulate
	OpMAC16                    // 16-bit fixed MAC
	OpMAC8                     // 8-bit fixed MAC
	OpMAC4                     // 4-bit fixed MAC
	OpFloatAdd                 // float add/sub/compare
	OpFloatMul                 // float multiply/divide
	OpFloatSqrt                // float square root
	OpFloatAtan                // float atan2 (or equivalent CORDIC)
	numOpClasses
)

var opNames = [...]string{
	"word64", "pop64", "rand64", "perm64", "intacc",
	"mac32", "mac16", "mac8", "mac4",
	"fadd", "fmul", "fsqrt", "fatan",
}

// String names the op class.
func (o OpClass) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return "unknown"
	}
	return opNames[o]
}

// Trace is an operation-count histogram describing a workload phase.
type Trace map[OpClass]int64

// Add accumulates another trace into t.
func (t Trace) Add(o Trace) {
	for k, v := range o {
		t[k] += v
	}
}

// Scale returns a copy of t with every count multiplied by f.
func (t Trace) Scale(f float64) Trace {
	out := Trace{}
	for k, v := range t {
		out[k] = int64(float64(v) * f)
	}
	return out
}

// Total returns the total op count.
func (t Trace) Total() int64 {
	var n int64
	for _, v := range t {
		n += v
	}
	return n
}

// FromStoch converts stochastic-arithmetic counters into a trace. A select
// is two masked ANDs and an OR (~2 word ops beyond the mask draw).
func FromStoch(s stoch.Stats) Trace {
	return Trace{
		OpWord64: s.XorWords + 2*s.SelectWords,
		OpPop64:  s.PopWords,
		OpRand64: s.MaskWords,
		OpPerm64: s.PermWords,
	}
}

// FromHOG converts classical-HOG float counters into a trace.
func FromHOG(s hog.Stats) Trace {
	return Trace{
		OpFloatAdd:  s.Adds,
		OpFloatMul:  s.Muls,
		OpFloatSqrt: s.Sqrts,
		OpFloatAtan: s.Atans,
	}
}

// FromNN prices DNN MAC work at the given weight precision (32 = float).
func FromNN(s nn.Stats, bits int) Trace {
	mac := OpMAC32
	switch bits {
	case 16:
		mac = OpMAC16
	case 8:
		mac = OpMAC8
	case 4:
		mac = OpMAC4
	}
	return Trace{
		mac:        s.ForwardMACs + s.BackwardMACs,
		OpFloatAdd: 2 * s.Updates, // momentum + weight add
	}
}

// HDCTrainTrace prices hyperdimensional classifier work: every similarity
// is D/64 popcount+word ops against each class, every class update D
// integer accumulates.
func HDCTrainTrace(similarities, updates int64, d int) Trace {
	words := int64((d + 63) / 64)
	return Trace{
		OpWord64: similarities * words,
		OpPop64:  similarities * words,
		OpIntAcc: updates * int64(d),
	}
}

// Platform prices traces. Throughput is ops per cycle; energy is picojoules
// per op; StaticWatts covers leakage and clock tree.
type Platform struct {
	Name        string
	FreqHz      float64
	Throughput  [numOpClasses]float64
	EnergyPJ    [numOpClasses]float64
	StaticWatts float64
}

// CortexA53 models the quad-issue in-order embedded core of the paper's
// Raspberry Pi 3B+ testbed (one core, NEON).
func CortexA53() Platform {
	p := Platform{Name: "ARM Cortex A53", FreqHz: 1.4e9, StaticWatts: 0.35}
	set := func(o OpClass, thr, pj float64) {
		p.Throughput[o] = thr
		p.EnergyPJ[o] = pj
	}
	// HDC streams D-wide vectors through memory, so its word ops carry
	// DRAM/L2 energy (~80 pJ per 64-bit word on LPDDR2-class systems),
	// whereas the DNN's GEMM-style MACs stay cache-resident.
	set(OpWord64, 2, 80)     // 2 ALU pipes, memory-bound energy
	set(OpPop64, 1, 80)      // NEON cnt+horizontal add
	set(OpRand64, 0.25, 100) // xoshiro: ~4 cycles/word
	set(OpPerm64, 1.5, 80)   // shifts + or
	set(OpIntAcc, 4, 60)     // 128-bit NEON int add
	// Inference/training GEMV on megabyte-scale weight matrices is DRAM
	// bandwidth bound on the A53 (each f32 MAC streams 4 weight bytes at
	// a few GB/s), so sustained MAC rates sit far below NEON peak.
	set(OpMAC32, 1, 80)
	set(OpMAC16, 2, 40)
	set(OpMAC8, 4, 30) // no int8 dot product on A53
	set(OpMAC4, 4, 30)
	set(OpFloatAdd, 2, 40)
	set(OpFloatMul, 2, 45)
	set(OpFloatSqrt, 1.0/8, 300)
	set(OpFloatAtan, 1.0/40, 1500)
	return p
}

// Kintex7 models the KC705's XC7K325T: ~200k usable LUTs, 840 DSP48 slices,
// 200 MHz system clock.
func Kintex7() Platform {
	p := Platform{Name: "Kintex-7 FPGA", FreqHz: 2e8, StaticWatts: 0.5}
	set := func(o OpClass, thr, pj float64) {
		p.Throughput[o] = thr
		p.EnergyPJ[o] = pj
	}
	// A spatial dataflow implementation lays each D-bit hypervector out
	// as parallel wires: one 4096-bit XOR costs ~4k LUTs, so a 200k-LUT
	// part pipelines tens of vector operators, sustaining thousands of
	// 64-bit words per cycle. This LUT-sea mapping is exactly the
	// advantage the paper attributes to HDC on FPGAs.
	set(OpWord64, 2048, 3) // spatial vector operators
	set(OpPop64, 1024, 4)  // LUT popcount trees
	set(OpRand64, 1024, 5) // per-bit LFSR farms feed the mask generators
	set(OpPerm64, 2048, 2) // barrel-shift routing
	set(OpIntAcc, 1024, 4) // carry-chain adders
	set(OpMAC32, 120, 80)  // ~4 DSP + logic each, routing-limited
	set(OpMAC16, 840, 20)  // one DSP48 each
	set(OpMAC8, 1680, 12)  // two per DSP
	set(OpMAC4, 3360, 8)
	set(OpFloatAdd, 200, 30)
	set(OpFloatMul, 210, 35)
	set(OpFloatSqrt, 20, 150)
	set(OpFloatAtan, 10, 400)
	return p
}

// Report is the priced execution of one trace on one platform.
type Report struct {
	Platform string
	Cycles   float64
	Seconds  float64
	DynamicJ float64
	StaticJ  float64
}

// Joules returns total energy.
func (r Report) Joules() float64 { return r.DynamicJ + r.StaticJ }

// Run prices a trace on the platform.
func (p Platform) Run(t Trace) Report {
	var cycles, dyn float64
	for op, n := range t {
		if n == 0 {
			continue
		}
		thr := p.Throughput[op]
		if thr == 0 {
			thr = 0.1 // unmapped op: heavily penalised microcode path
		}
		cycles += float64(n) / thr
		dyn += float64(n) * p.EnergyPJ[op] * 1e-12
	}
	secs := cycles / p.FreqHz
	return Report{
		Platform: p.Name,
		Cycles:   cycles,
		Seconds:  secs,
		DynamicJ: dyn,
		StaticJ:  p.StaticWatts * secs,
	}
}

// Speedup returns how much faster a is than b (b.Seconds / a.Seconds).
func Speedup(a, b Report) float64 {
	if a.Seconds == 0 {
		return 0
	}
	return b.Seconds / a.Seconds
}

// EnergyGain returns how much less energy a uses than b.
func EnergyGain(a, b Report) float64 {
	if a.Joules() == 0 {
		return 0
	}
	return b.Joules() / a.Joules()
}
