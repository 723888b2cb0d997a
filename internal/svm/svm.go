// Package svm implements the paper's SVM baseline: a linear multi-class
// support vector machine trained with the Pegasos stochastic sub-gradient
// solver in a one-vs-rest arrangement over HOG features.
package svm

import (
	"errors"
	"fmt"
	"math"

	"hdface/internal/hv"
)

// Config holds the solver hyperparameters.
type Config struct {
	Lambda float64 // regularisation (default 1e-4)
	Epochs int     // passes over the data (default 20)
	Seed   uint64
}

func (c Config) withDefaults() Config {
	if c.Lambda == 0 {
		c.Lambda = 1e-4
	}
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	return c
}

// Model is a trained one-vs-rest linear SVM.
type Model struct {
	In, K int
	W     [][]float64 // K x In
	B     []float64
	// MACs counts multiply-accumulate work for the hardware model.
	MACs int64
}

// Train fits the SVM; labels must lie in [0, k).
func Train(xs [][]float64, ys []int, k int, cfg Config) (*Model, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, errors.New("svm: features and labels must be non-empty and aligned")
	}
	if k < 2 {
		return nil, errors.New("svm: need at least two classes")
	}
	cfg = cfg.withDefaults()
	in := len(xs[0])
	for i, x := range xs {
		if len(x) != in {
			return nil, fmt.Errorf("svm: sample %d has %d features, want %d", i, len(x), in)
		}
		if ys[i] < 0 || ys[i] >= k {
			return nil, fmt.Errorf("svm: label %d out of range", ys[i])
		}
	}
	m := &Model{In: in, K: k, W: make([][]float64, k), B: make([]float64, k)}
	for c := range m.W {
		m.W[c] = make([]float64, in)
	}
	r := hv.NewRNG(cfg.Seed ^ 0x5f3759df)
	t := 1
	for e := 0; e < cfg.Epochs; e++ {
		perm := r.Perm(len(xs))
		for _, i := range perm {
			x := xs[i]
			eta := 1 / (cfg.Lambda * float64(t))
			t++
			for c := 0; c < k; c++ {
				y := -1.0
				if ys[i] == c {
					y = 1
				}
				w := m.W[c]
				var margin float64
				for j, xv := range x {
					margin += w[j] * xv
				}
				margin = y * (margin + m.B[c])
				m.MACs += int64(in)
				// Pegasos update: shrink always, push on margin violation.
				shrink := 1 - eta*cfg.Lambda
				for j := range w {
					w[j] *= shrink
				}
				if margin < 1 {
					coef := eta * y
					for j, xv := range x {
						w[j] += coef * xv
					}
					m.B[c] += coef
					m.MACs += int64(in)
				}
				// Pegasos projection step: keep ||w|| <= 1/sqrt(lambda).
				var norm float64
				for _, wv := range w {
					norm += wv * wv
				}
				if bound := 1 / math.Sqrt(cfg.Lambda); norm > bound*bound {
					s := bound / math.Sqrt(norm)
					for j := range w {
						w[j] *= s
					}
				}
			}
		}
	}
	return m, nil
}

// Decision returns the raw per-class scores for x.
func (m *Model) Decision(x []float64) []float64 {
	if len(x) != m.In {
		panic(fmt.Sprintf("svm: got %d features, want %d", len(x), m.In))
	}
	out := make([]float64, m.K)
	for c := 0; c < m.K; c++ {
		s := m.B[c]
		for j, xv := range x {
			s += m.W[c][j] * xv
		}
		out[c] = s
	}
	return out
}

// Predict returns the highest-scoring class.
func (m *Model) Predict(x []float64) int {
	d := m.Decision(x)
	best := 0
	for c, s := range d {
		if s > d[best] {
			best = c
		}
	}
	return best
}

// Accuracy evaluates the model.
func (m *Model) Accuracy(xs [][]float64, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if m.Predict(x) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}
