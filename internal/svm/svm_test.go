package svm

import (
	"math"
	"testing"

	"hdface/internal/hv"
)

func blobs(dim, k, perClass int, spread float64, seed uint64) (xs [][]float64, ys []int) {
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
				x[j] = centers[c][j] + r.NormFloat64()*spread
			}
			xs = append(xs, x)
			ys = append(ys, c)
		}
	}
	return
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, 2, Config{}); err == nil {
		t.Fatal("accepted empty data")
	}
	if _, err := Train([][]float64{{1}}, []int{0}, 1, Config{}); err == nil {
		t.Fatal("accepted k=1")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []int{0, 1}, 2, Config{}); err == nil {
		t.Fatal("accepted ragged features")
	}
	if _, err := Train([][]float64{{1}}, []int{5}, 2, Config{}); err == nil {
		t.Fatal("accepted out-of-range label")
	}
}

func TestLearnsSeparableBlobs(t *testing.T) {
	xs, ys := blobs(8, 3, 40, 0.5, 1)
	m, err := Train(xs, ys, 3, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(xs, ys); acc < 0.95 {
		t.Fatalf("train accuracy %v", acc)
	}
	tx, ty := blobs(8, 3, 10, 0.5, 1)
	if acc := m.Accuracy(tx, ty); acc < 0.9 {
		t.Fatalf("test accuracy %v", acc)
	}
}

func TestBinaryProblem(t *testing.T) {
	xs, ys := blobs(4, 2, 50, 0.7, 3)
	m, err := Train(xs, ys, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(xs, ys); acc < 0.9 {
		t.Fatalf("binary accuracy %v", acc)
	}
}

func TestDecisionShapeAndPanic(t *testing.T) {
	xs, ys := blobs(4, 2, 10, 0.5, 4)
	m, _ := Train(xs, ys, 2, Config{})
	if d := m.Decision(xs[0]); len(d) != 2 {
		t.Fatalf("decision length %d", len(d))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong length")
		}
	}()
	m.Decision([]float64{1})
}

func TestDeterministic(t *testing.T) {
	xs, ys := blobs(4, 2, 20, 0.5, 5)
	a, _ := Train(xs, ys, 2, Config{Seed: 7})
	b, _ := Train(xs, ys, 2, Config{Seed: 7})
	for c := range a.W {
		for j := range a.W[c] {
			if a.W[c][j] != b.W[c][j] {
				t.Fatal("training not deterministic")
			}
		}
	}
}

func TestNormBounded(t *testing.T) {
	// Pegasos keeps ||w|| <= 1/sqrt(lambda).
	xs, ys := blobs(6, 2, 30, 1.0, 6)
	lambda := 1e-3
	m, _ := Train(xs, ys, 2, Config{Lambda: lambda, Epochs: 30})
	bound := 1.05 / 0.0316227766 // 1/sqrt(1e-3) with 5% slack
	for c := 0; c < 2; c++ {
		var ss float64
		for _, w := range m.W[c] {
			ss += w * w
		}
		if norm := math.Sqrt(ss); norm > bound {
			t.Fatalf("class %d norm %v exceeds Pegasos bound", c, norm)
		}
	}
}

func TestMACsCounted(t *testing.T) {
	xs, ys := blobs(4, 2, 10, 0.5, 8)
	m, _ := Train(xs, ys, 2, Config{Epochs: 2})
	if m.MACs == 0 {
		t.Fatal("MACs not counted")
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := &Model{In: 2, K: 2, W: [][]float64{{0, 0}, {0, 0}}, B: []float64{0, 0}}
	if m.Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy != 0")
	}
}

func BenchmarkTrain(b *testing.B) {
	xs, ys := blobs(324, 2, 50, 0.5, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(xs, ys, 2, Config{Epochs: 5}); err != nil {
			b.Fatal(err)
		}
	}
}
