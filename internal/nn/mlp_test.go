package nn

import (
	"math"
	"testing"

	"hdface/internal/hv"
)

// xorProblem builds a 2D XOR-like dataset the linear model cannot solve but
// a two-hidden-layer MLP must.
func xorProblem(n int, seed uint64) (xs [][]float64, ys []int) {
	r := hv.NewRNG(seed)
	for i := 0; i < n; i++ {
		a := r.Float64()*2 - 1
		b := r.Float64()*2 - 1
		y := 0
		if (a > 0) != (b > 0) {
			y = 1
		}
		xs = append(xs, []float64{a, b})
		ys = append(ys, y)
	}
	return
}

// blobs builds k linearly separable Gaussian blobs in dim dimensions.
func blobs(dim, k, perClass int, seed uint64) (xs [][]float64, ys []int) {
	r := hv.NewRNG(seed)
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = r.NormFloat64() * 3
		}
	}
	for c := 0; c < k; c++ {
		for i := 0; i < perClass; i++ {
			x := make([]float64, dim)
			for j := range x {
				x[j] = centers[c][j] + r.NormFloat64()*0.5
			}
			xs = append(xs, x)
			ys = append(ys, c)
		}
	}
	return
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{In: 0, H1: 4, H2: 4, Out: 2}); err == nil {
		t.Fatal("accepted In=0")
	}
	if _, err := New(Config{In: 2, H1: 4, H2: 4, Out: 1}); err == nil {
		t.Fatal("accepted Out=1")
	}
	m, err := New(Config{In: 2, H1: 4, H2: 4, Out: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cfg.LR == 0 || m.Cfg.Epochs == 0 || m.Cfg.Batch == 0 {
		t.Fatal("defaults not filled")
	}
}

func TestTrainRejectsBadData(t *testing.T) {
	m, _ := New(Config{In: 2, H1: 4, H2: 4, Out: 2})
	if _, err := m.Train(nil, nil); err == nil {
		t.Fatal("accepted empty data")
	}
	if _, err := m.Train([][]float64{{1, 2, 3}}, []int{0}); err == nil {
		t.Fatal("accepted wrong feature length")
	}
}

func TestPredictPanicsOnWrongLength(t *testing.T) {
	m, _ := New(Config{In: 2, H1: 4, H2: 4, Out: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Predict([]float64{1})
}

func TestLearnsBlobs(t *testing.T) {
	xs, ys := blobs(8, 3, 40, 1)
	m, _ := New(Config{In: 8, H1: 16, H2: 16, Out: 3, Epochs: 25, Seed: 2})
	losses, err := m.Train(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	if acc := m.Accuracy(xs, ys); acc < 0.95 {
		t.Fatalf("blob accuracy %v", acc)
	}
	tx, ty := blobs(8, 3, 10, 1) // same centers
	if acc := m.Accuracy(tx, ty); acc < 0.9 {
		t.Fatalf("held-out accuracy %v", acc)
	}
}

func TestLearnsXOR(t *testing.T) {
	xs, ys := xorProblem(400, 3)
	m, _ := New(Config{In: 2, H1: 16, H2: 16, Out: 2, Epochs: 120, LR: 0.1, Seed: 4})
	if _, err := m.Train(xs, ys); err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(xs, ys); acc < 0.9 {
		t.Fatalf("XOR accuracy %v — nonlinearity broken", acc)
	}
}

func TestDeterministicTraining(t *testing.T) {
	xs, ys := blobs(4, 2, 20, 5)
	a, _ := New(Config{In: 4, H1: 8, H2: 8, Out: 2, Epochs: 5, Seed: 9})
	b, _ := New(Config{In: 4, H1: 8, H2: 8, Out: 2, Epochs: 5, Seed: 9})
	la, _ := a.Train(xs, ys)
	lb, _ := b.Train(xs, ys)
	for i := range la {
		if la[i] != lb[i] {
			t.Fatal("training not deterministic")
		}
	}
}

func TestStatsCount(t *testing.T) {
	xs, ys := blobs(4, 2, 10, 6)
	m, _ := New(Config{In: 4, H1: 8, H2: 8, Out: 2, Epochs: 2})
	if _, err := m.Train(xs, ys); err != nil {
		t.Fatal(err)
	}
	if m.Stats.ForwardMACs == 0 || m.Stats.BackwardMACs == 0 || m.Stats.Updates == 0 {
		t.Fatalf("stats empty: %+v", m.Stats)
	}
}

func TestQuantizeRejectsOddBits(t *testing.T) {
	m, _ := New(Config{In: 2, H1: 4, H2: 4, Out: 2})
	if _, err := Quantize(m, 7); err == nil {
		t.Fatal("accepted 7-bit quantisation")
	}
}

func TestQuantizeAccuracyOrdering(t *testing.T) {
	// Higher precision keeps accuracy closer to float; 4-bit loses the
	// most — the Table 2 precision/accuracy tradeoff.
	xs, ys := blobs(16, 4, 40, 7)
	m, _ := New(Config{In: 16, H1: 32, H2: 32, Out: 4, Epochs: 25, Seed: 8})
	if _, err := m.Train(xs, ys); err != nil {
		t.Fatal(err)
	}
	accF := m.Accuracy(xs, ys)
	q16, err := Quantize(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	q4, err := Quantize(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	acc16 := q16.Accuracy(xs, ys)
	acc4 := q4.Accuracy(xs, ys)
	if math.Abs(acc16-accF) > 0.02 {
		t.Fatalf("16-bit accuracy %v far from float %v", acc16, accF)
	}
	if acc4 > acc16+0.01 {
		t.Fatalf("4-bit accuracy %v above 16-bit %v", acc4, acc16)
	}
}

func TestQuantizedRoundTripValues(t *testing.T) {
	m, _ := New(Config{In: 2, H1: 4, H2: 4, Out: 2, Seed: 3})
	q, err := Quantize(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Dequantised weights must be close to the originals.
	orig := m.Layers()
	quant := q.mlp.Layers()
	for t1 := range orig {
		for i := range orig[t1] {
			if d := math.Abs(orig[t1][i] - quant[t1][i]); d > 1e-3 {
				t.Fatalf("tensor %d weight %d drifted by %v", t1, i, d)
			}
		}
	}
}

func TestFlipBitChangesWeightAndSyncs(t *testing.T) {
	m, _ := New(Config{In: 2, H1: 4, H2: 4, Out: 2, Seed: 3})
	q, err := Quantize(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	before := q.codes[0][0]
	q.FlipBit(0, 0, 7) // flip sign-adjacent high bit
	if q.codes[0][0] == before {
		t.Fatal("FlipBit did not change the code")
	}
	q.FlipBit(0, 0, 7)
	if q.codes[0][0] != before {
		t.Fatal("double flip did not restore the code")
	}
	// Width bounds.
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range bit")
		}
	}()
	q.FlipBit(0, 0, 8)
}

func TestFlipBitSignExtension(t *testing.T) {
	m, _ := New(Config{In: 2, H1: 4, H2: 4, Out: 2, Seed: 3})
	q, _ := Quantize(m, 4)
	q.codes[0][0] = 3
	q.FlipBit(0, 0, 3) // set the sign bit: 0011 -> 1011 = -5 in 4-bit
	if q.codes[0][0] != -5 {
		t.Fatalf("sign extension wrong: %d", q.codes[0][0])
	}
}

func TestWeightBits(t *testing.T) {
	m, _ := New(Config{In: 2, H1: 4, H2: 4, Out: 2})
	q, _ := Quantize(m, 8)
	weights := 2*4 + 4 + 4*4 + 4 + 4*2 + 2 // three layers' weights and biases
	if got, want := q.WeightBits(), int64(weights*8); got != want {
		t.Fatalf("WeightBits %d, want %d", got, want)
	}
}

func BenchmarkForward(b *testing.B) {
	m, _ := New(Config{In: 324, H1: 256, H2: 256, Out: 7})
	x := make([]float64, 324)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	xs, ys := blobs(64, 4, 30, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, _ := New(Config{In: 64, H1: 64, H2: 64, Out: 4, Epochs: 1})
		if _, err := m.Train(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
