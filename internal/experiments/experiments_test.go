package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyOpts keeps the smoke tests fast on one core.
func tinyOpts() Options {
	return Options{
		Seed:      3,
		Quick:     true,
		EmoTrain:  28,
		EmoTest:   14,
		FaceTrain: 12,
		FaceTest:  6,
		Trials:    20,
		D:         1024,
		Dims:      []int{512, 1024},
		ErrRates:  []float64{0, 0.04},
		DNNEpochs: 4,
		DNNHidden: []int{32},
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.EmoTrain != 140 || o.D != 4096 || len(o.Dims) == 0 || len(o.ErrRates) != 7 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	q := Options{Quick: true}.withDefaults()
	if q.EmoTrain >= o.EmoTrain || q.D >= o.D {
		t.Fatal("quick mode not smaller")
	}
}

func TestLoadAllShapes(t *testing.T) {
	o := tinyOpts().withDefaults()
	ds := loadAll(o)
	if len(ds) != 3 {
		t.Fatalf("want 3 datasets, got %d", len(ds))
	}
	if ds[0].k != 7 || ds[1].k != 2 || ds[2].k != 2 {
		t.Fatal("class counts wrong")
	}
	if len(ds[0].trainImgs) != o.EmoTrain || len(ds[1].trainImgs) != o.FaceTrain {
		t.Fatal("split sizes wrong")
	}
	for _, d := range ds {
		if len(d.trainImgs) != len(d.trainLabels) {
			t.Fatal("labels misaligned")
		}
	}
}

func TestRunnerRegistry(t *testing.T) {
	all := All()
	if len(all) != 19 {
		t.Fatalf("expected 19 experiments, got %d", len(all))
	}
	if _, ok := Get("fig4"); !ok {
		t.Fatal("fig4 missing")
	}
	if _, ok := Get("nonsense"); ok {
		t.Fatal("bogus experiment found")
	}
	for _, r := range all {
		if r.Name == "" || r.Desc == "" || r.Run == nil {
			t.Fatalf("incomplete runner %+v", r)
		}
	}
}

func TestFig2(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig2(&buf, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "construct") {
		t.Fatalf("unexpected output: %s", out)
	}
	// The error must shrink with D.
	pts := Fig2Data(tinyOpts())
	if pts[len(pts)-1].Mul >= pts[0].Mul {
		t.Fatalf("multiplication error did not shrink: %+v", pts)
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"EMOTION", "FACE1", "FACE2", "36685", "522441"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q in table 1 output", want)
		}
	}
}

func TestFig4(t *testing.T) {
	rows, err := Fig4Data(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		for name, acc := range map[string]float64{
			"hdstoch": r.HDStoch, "hdorig": r.HDOrig, "dnn": r.DNN, "svm": r.SVM} {
			if acc < 0 || acc > 1 {
				t.Fatalf("%s/%s accuracy %v out of range", r.Dataset, name, acc)
			}
		}
		// Binary face detection at this scale should be well above chance
		// for the HDC pipelines.
		if r.Dataset != "EMOTION" && r.HDStoch < 0.55 {
			t.Fatalf("%s HDStoch accuracy %v near chance", r.Dataset, r.HDStoch)
		}
	}
	var buf bytes.Buffer
	if err := Fig4(&buf, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean") {
		t.Fatal("no mean row")
	}
}

func TestFig5a(t *testing.T) {
	pts, err := Fig5aData(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
	// Modelled training time must grow with dimensionality.
	if pts[1].TrainSeconds <= pts[0].TrainSeconds {
		t.Fatalf("train time not increasing with D: %+v", pts)
	}
	var buf bytes.Buffer
	if err := Fig5a(&buf, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "best accuracy at D=") {
		t.Fatal("missing summary line")
	}
}

func TestFig5b(t *testing.T) {
	o := tinyOpts()
	o.DNNHidden = []int{16, 64}
	pts, err := Fig5bData(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatal("want 2 points")
	}
	if pts[1].TrainSeconds <= pts[0].TrainSeconds {
		t.Fatalf("train time not increasing with hidden size: %+v", pts)
	}
	var buf bytes.Buffer
	if err := Fig5b(&buf, o); err != nil {
		t.Fatal(err)
	}
}

func TestFig6(t *testing.T) {
	dir := t.TempDir()
	o := tinyOpts()
	o.OutDir = dir
	scene, results, err := Fig6Data(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(scene.Faces) == 0 {
		t.Fatal("scene has no faces")
	}
	if len(results) != 2 {
		t.Fatalf("want 2 dimensionalities, got %d", len(results))
	}
	for _, r := range results {
		if r.Windows == 0 || len(r.Map) == 0 {
			t.Fatalf("empty result for D=%d", r.D)
		}
		if r.TruePos+r.FalsePos+r.Misses > r.Windows {
			t.Fatal("counts exceed windows")
		}
	}
	// PGM artefacts written.
	if _, err := os.Stat(filepath.Join(dir, "fig6_scene.pgm")); err != nil {
		t.Fatal("scene PGM missing")
	}
	if _, err := os.Stat(filepath.Join(dir, "fig6_detect_d1024.pgm")); err != nil {
		t.Fatal("detection PGM missing")
	}
	var buf bytes.Buffer
	o.OutDir = ""
	if err := Fig6(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "windows") {
		t.Fatal("no window summary")
	}
}

func TestFig7(t *testing.T) {
	rows, err := Fig7Data(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		// The structural claims: HDFace trains faster than DNN on both
		// platforms, and the FPGA energy advantage exceeds the CPU one.
		if r.TrainSpeedCPU <= 1 {
			t.Fatalf("%s: no CPU training speedup: %v", r.Dataset, r.TrainSpeedCPU)
		}
		if r.TrainSpeedFPGA <= 1 {
			t.Fatalf("%s: no FPGA training speedup: %v", r.Dataset, r.TrainSpeedFPGA)
		}
		if r.TrainEnergyFPGA <= r.TrainEnergyCPU {
			t.Fatalf("%s: FPGA energy gain %v not above CPU %v",
				r.Dataset, r.TrainEnergyFPGA, r.TrainEnergyCPU)
		}
	}
	var buf bytes.Buffer
	if err := Fig7(&buf, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "paper:") {
		t.Fatal("no paper reference row")
	}
}

func TestTable2(t *testing.T) {
	o := tinyOpts()
	rows, err := Table2Data(o)
	if err != nil {
		t.Fatal(err)
	}
	// 3 DNN rows + 2 stoch dims + 2 orig dims.
	if len(rows) != 7 {
		t.Fatalf("want 7 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Losses) != len(o.ErrRates) {
			t.Fatalf("%s: %d losses for %d rates", r.Name, len(r.Losses), len(o.ErrRates))
		}
	}
	var buf bytes.Buffer
	if err := Table2(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DNN 16-bit") {
		t.Fatal("missing DNN row")
	}
}

func TestMotivation(t *testing.T) {
	var buf bytes.Buffer
	if err := Motivation(&buf, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "HOG share") || !strings.Contains(out, "quality loss") {
		t.Fatalf("unexpected output: %s", out)
	}
}

func TestAblations(t *testing.T) {
	o := tinyOpts()
	o.D = 512
	var buf bytes.Buffer
	if err := Ablations(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"baseline", "stride 3", "bind-bundle", "L1 magnitude", "sqrt depth 4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing variant %q in ablation output", want)
		}
	}
}

func TestFewShot(t *testing.T) {
	o := tinyOpts()
	var buf bytes.Buffer
	if err := FewShot(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "HDC 1-pass") {
		t.Fatal("missing single-pass column")
	}
	pts, err := FewShotData(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 2 {
		t.Fatalf("too few points: %d", len(pts))
	}
	last := pts[len(pts)-1]
	if last.HDFull < pts[0].HDFull-0.1 {
		t.Fatalf("more data made adaptive HDC much worse: %v -> %v", pts[0].HDFull, last.HDFull)
	}
}

func TestDimReduce(t *testing.T) {
	o := tinyOpts()
	pts, err := DimReduceData(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("want 4 points, got %d", len(pts))
	}
	if pts[0].D != 4096 || pts[len(pts)-1].D != 512 {
		t.Fatalf("cut schedule wrong: %+v", pts)
	}
	// Moderate reduction must not collapse accuracy to chance.
	if pts[1].Accuracy < pts[0].Accuracy-0.25 {
		t.Fatalf("2x cut collapsed accuracy: %+v", pts[:2])
	}
	var buf bytes.Buffer
	if err := DimReduce(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "D kept") {
		t.Fatal("missing table header")
	}
}

func TestOcclusion(t *testing.T) {
	o := tinyOpts()
	pts, err := OcclusionData(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("want 3 points, got %d", len(pts))
	}
	if pts[0].Frac != 0 {
		t.Fatal("first point must be clean")
	}
	var buf bytes.Buffer
	if err := Occlusion(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "occluded") {
		t.Fatal("missing header")
	}
}

func TestDSE(t *testing.T) {
	o := tinyOpts()
	pts, err := DSEData(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 {
		t.Fatalf("want 7 design points, got %d", len(pts))
	}
	// Latency must fall monotonically with lanes; at least one point is
	// pareto-optimal; the frontier has both a fast and a frugal end.
	paretoCount := 0
	for i, p := range pts {
		if i > 0 && p.LatencyUs >= pts[i-1].LatencyUs {
			t.Fatalf("latency not decreasing at %d lanes", p.Lanes)
		}
		if p.Pareto {
			paretoCount++
		}
	}
	if paretoCount == 0 {
		t.Fatal("no pareto points")
	}
	var buf bytes.Buffer
	if err := DSE(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pareto") {
		t.Fatal("missing pareto column")
	}
}

func TestVerifyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction gate runs the quick-scale experiments (~2 min)")
	}
	var buf bytes.Buffer
	if err := Verify(&buf, tinyOpts()); err != nil {
		t.Fatalf("reproduction gate failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "structural claims hold") {
		t.Fatalf("unexpected gate output:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("gate printed failures:\n%s", out)
	}
}

func TestFaultSweep(t *testing.T) {
	report, err := FaultSweepData(Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if report.Schema != "hdface-bench-fault/v1" {
		t.Fatalf("schema %q", report.Schema)
	}
	if len(report.Dims) == 0 {
		t.Fatal("no dimensionality sections")
	}
	for _, dim := range report.Dims {
		if len(dim.Points) != len(report.BERs) {
			t.Fatalf("D=%d: %d points for %d BERs", dim.D, len(dim.Points), len(report.BERs))
		}
		if dim.AccClean < 0.8 {
			t.Fatalf("D=%d clean accuracy %v; substrate broken", dim.D, dim.AccClean)
		}
		for _, pt := range dim.Points {
			if pt.ModelFlips <= 0 || pt.GridBits <= 0 {
				t.Fatalf("D=%d BER=%v: no faults injected: %+v", dim.D, pt.BER, pt)
			}
			if pt.StuckBits >= pt.ModelFlips {
				t.Fatalf("D=%d BER=%v: StuckFrac 0.25 latched %d of %d faults",
					dim.D, pt.BER, pt.StuckBits, pt.ModelFlips)
			}
		}
		// The headline claims: extreme corruption hurts the bit-serial
		// accuracy, and self-repair recovers it (stuck-at cells bound the
		// recovery, hence the slack against clean).
		last := dim.Points[len(dim.Points)-1]
		if last.AccFaulty >= dim.AccClean {
			t.Fatalf("D=%d: BER %v did not degrade accuracy (%v vs clean %v)",
				dim.D, last.BER, last.AccFaulty, dim.AccClean)
		}
		if last.AccRepaired <= last.AccFaulty {
			t.Fatalf("D=%d: repair did not recover accuracy (%v vs faulty %v)",
				dim.D, last.AccRepaired, last.AccFaulty)
		}
	}
}

func TestOnlineBench(t *testing.T) {
	report, err := OnlineBenchData(Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if report.Schema != "hdface-bench-online/v1" {
		t.Fatalf("schema %q", report.Schema)
	}
	if len(report.Buckets) == 0 || report.Buckets[len(report.Buckets)-1].End != report.StreamLen {
		t.Fatalf("bucket coverage wrong: %+v", report.Buckets)
	}
	// The whole point of the subsystem: a dip at the drift injection,
	// promotion-driven recovery, and a frozen baseline that stays down.
	if report.DipAcc >= report.PreDriftAcc {
		t.Fatalf("no dip after drift: dip=%v pre=%v", report.DipAcc, report.PreDriftAcc)
	}
	if !report.Recovered {
		t.Fatalf("adaptive path did not recover: %+v", report)
	}
	if report.FrozenFinal >= report.RecoveredAcc {
		t.Fatalf("frozen baseline kept up: frozen=%v adaptive=%v", report.FrozenFinal, report.RecoveredAcc)
	}
	if report.Promotions == 0 {
		t.Fatal("recovery happened without any promotion; attribution is broken")
	}
	for _, b := range report.Buckets {
		if b.LiveVersion == 0 {
			t.Fatalf("bucket [%d,%d) has no live version", b.Start, b.End)
		}
	}
}
