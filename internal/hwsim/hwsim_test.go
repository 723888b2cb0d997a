package hwsim

import (
	"testing"

	"hdface/internal/hog"
	"hdface/internal/nn"
	"hdface/internal/stoch"
)

func TestTraceAddScaleTotal(t *testing.T) {
	a := Trace{OpWord64: 100, OpPop64: 50}
	b := Trace{OpWord64: 10, OpMAC16: 5}
	a.Add(b)
	if a[OpWord64] != 110 || a[OpMAC16] != 5 {
		t.Fatalf("Add wrong: %v", a)
	}
	s := a.Scale(2)
	if s[OpWord64] != 220 || a[OpWord64] != 110 {
		t.Fatal("Scale wrong or mutated source")
	}
	if a.Total() != 110+50+5 {
		t.Fatalf("Total %d", a.Total())
	}
}

func TestOpClassString(t *testing.T) {
	if OpWord64.String() != "word64" || OpFloatAtan.String() != "fatan" {
		t.Fatal("op names wrong")
	}
	if OpClass(99).String() != "unknown" {
		t.Fatal("out-of-range op name")
	}
}

func TestFromStoch(t *testing.T) {
	tr := FromStoch(stoch.Stats{XorWords: 10, SelectWords: 5, MaskWords: 7, PopWords: 3, PermWords: 2})
	if tr[OpWord64] != 20 || tr[OpRand64] != 7 || tr[OpPop64] != 3 || tr[OpPerm64] != 2 {
		t.Fatalf("FromStoch wrong: %v", tr)
	}
}

func TestFromHOG(t *testing.T) {
	tr := FromHOG(hog.Stats{Adds: 4, Muls: 3, Sqrts: 2, Atans: 1})
	if tr[OpFloatAdd] != 4 || tr[OpFloatSqrt] != 2 || tr[OpFloatAtan] != 1 {
		t.Fatalf("FromHOG wrong: %v", tr)
	}
}

func TestFromNNPrecisions(t *testing.T) {
	s := nn.Stats{ForwardMACs: 100, BackwardMACs: 50, Updates: 10}
	for bits, op := range map[int]OpClass{32: OpMAC32, 16: OpMAC16, 8: OpMAC8, 4: OpMAC4} {
		tr := FromNN(s, bits)
		if tr[op] != 150 {
			t.Fatalf("bits=%d: MACs %d", bits, tr[op])
		}
		if tr[OpFloatAdd] != 20 {
			t.Fatalf("bits=%d: updates %d", bits, tr[OpFloatAdd])
		}
	}
}

func TestHDCTrainTrace(t *testing.T) {
	tr := HDCTrainTrace(10, 4, 4096)
	if tr[OpWord64] != 10*64 || tr[OpPop64] != 10*64 || tr[OpIntAcc] != 4*4096 {
		t.Fatalf("HDCTrainTrace wrong: %v", tr)
	}
}

func TestRunBasics(t *testing.T) {
	cpu := CortexA53()
	tr := Trace{OpWord64: 1 << 20}
	r := cpu.Run(tr)
	if r.Cycles <= 0 || r.Seconds <= 0 || r.Joules() <= 0 {
		t.Fatalf("degenerate report: %+v", r)
	}
	// 2 word ops per cycle at 1.4 GHz.
	wantCycles := float64(1<<20) / 2
	if r.Cycles != wantCycles {
		t.Fatalf("cycles %v, want %v", r.Cycles, wantCycles)
	}
	if r.Seconds != wantCycles/1.4e9 {
		t.Fatalf("seconds %v", r.Seconds)
	}
	if r.StaticJ <= 0 || r.DynamicJ <= 0 {
		t.Fatal("energy components missing")
	}
}

func TestUnmappedOpPenalised(t *testing.T) {
	p := Platform{Name: "bare", FreqHz: 1e9}
	r := p.Run(Trace{OpFloatAtan: 100})
	if r.Cycles != 1000 { // 0.1 ops/cycle fallback
		t.Fatalf("fallback cycles %v", r.Cycles)
	}
}

func TestBitwiseWorkPrefersFPGA(t *testing.T) {
	// The structural claim behind Figure 7: a bitwise-dominated trace
	// speeds up far more on the FPGA than a MAC-dominated one.
	cpu, fpga := CortexA53(), Kintex7()
	hdc := Trace{OpWord64: 1 << 24, OpPop64: 1 << 22, OpRand64: 1 << 22}
	dnn := Trace{OpMAC32: 1 << 24, OpFloatAdd: 1 << 20}
	hdcSpeedup := Speedup(fpga.Run(hdc), cpu.Run(hdc))
	dnnSpeedup := Speedup(fpga.Run(dnn), cpu.Run(dnn))
	if hdcSpeedup <= dnnSpeedup {
		t.Fatalf("FPGA speedup for HDC (%v) not above DNN (%v)", hdcSpeedup, dnnSpeedup)
	}
}

func TestTranscendentalsHurtFPGALess(t *testing.T) {
	// Atan-heavy classical HOG is painful everywhere but must not be
	// infinitely penalised: both platforms must return finite work.
	tr := FromHOG(hog.Stats{Adds: 1000, Muls: 1000, Sqrts: 100, Atans: 100})
	for _, p := range []Platform{CortexA53(), Kintex7()} {
		r := p.Run(tr)
		if r.Seconds <= 0 || r.Joules() <= 0 {
			t.Fatalf("%s: degenerate report", p.Name)
		}
	}
}

func TestSpeedupEnergyGain(t *testing.T) {
	a := Report{Seconds: 1, DynamicJ: 1}
	b := Report{Seconds: 4, DynamicJ: 2, StaticJ: 2}
	if Speedup(a, b) != 4 {
		t.Fatal("Speedup wrong")
	}
	if EnergyGain(a, b) != 4 {
		t.Fatal("EnergyGain wrong")
	}
	if Speedup(Report{}, b) != 0 || EnergyGain(Report{}, b) != 0 {
		t.Fatal("zero guards wrong")
	}
}

func TestLowerPrecisionCheaper(t *testing.T) {
	fpga := Kintex7()
	s := nn.Stats{ForwardMACs: 1 << 24}
	t16 := fpga.Run(FromNN(s, 16))
	t4 := fpga.Run(FromNN(s, 4))
	if t4.Seconds >= t16.Seconds {
		t.Fatal("4-bit not faster than 16-bit on FPGA")
	}
	if t4.DynamicJ >= t16.DynamicJ {
		t.Fatal("4-bit not more energy-efficient")
	}
}
