// Package metrics provides the classification metrics the evaluation
// reports: confusion matrices, accuracy, per-class precision/recall/F1 and
// macro averages.
package metrics

import (
	"errors"
	"fmt"
	"strings"
)

// Confusion is a k x k confusion matrix: rows are ground truth, columns
// predictions.
type Confusion struct {
	K      int
	Counts [][]int64
	Names  []string // optional class names
}

// NewConfusion returns an empty k-class matrix.
func NewConfusion(k int) *Confusion {
	if k < 2 {
		panic("metrics: need at least two classes")
	}
	c := &Confusion{K: k, Counts: make([][]int64, k)}
	for i := range c.Counts {
		c.Counts[i] = make([]int64, k)
	}
	return c
}

// Observe records one (truth, prediction) pair.
func (c *Confusion) Observe(truth, pred int) error {
	if truth < 0 || truth >= c.K || pred < 0 || pred >= c.K {
		return fmt.Errorf("metrics: labels (%d, %d) out of range [0, %d)", truth, pred, c.K)
	}
	c.Counts[truth][pred]++
	return nil
}

// ObserveAll records aligned label slices.
func (c *Confusion) ObserveAll(truths, preds []int) error {
	if len(truths) != len(preds) {
		return errors.New("metrics: misaligned label slices")
	}
	for i := range truths {
		if err := c.Observe(truths[i], preds[i]); err != nil {
			return err
		}
	}
	return nil
}

// Total returns the number of observations.
func (c *Confusion) Total() int64 {
	var n int64
	for _, row := range c.Counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Accuracy returns the trace fraction.
func (c *Confusion) Accuracy() float64 {
	n := c.Total()
	if n == 0 {
		return 0
	}
	var diag int64
	for i := 0; i < c.K; i++ {
		diag += c.Counts[i][i]
	}
	return float64(diag) / float64(n)
}

// Precision returns TP / (TP + FP) for class k (0 when the class is never
// predicted).
func (c *Confusion) Precision(k int) float64 {
	var pred int64
	for t := 0; t < c.K; t++ {
		pred += c.Counts[t][k]
	}
	if pred == 0 {
		return 0
	}
	return float64(c.Counts[k][k]) / float64(pred)
}

// Recall returns TP / (TP + FN) for class k (0 when the class never
// occurs).
func (c *Confusion) Recall(k int) float64 {
	var truth int64
	for p := 0; p < c.K; p++ {
		truth += c.Counts[k][p]
	}
	if truth == 0 {
		return 0
	}
	return float64(c.Counts[k][k]) / float64(truth)
}

// F1 returns the harmonic mean of precision and recall for class k.
func (c *Confusion) F1(k int) float64 {
	p, r := c.Precision(k), c.Recall(k)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MacroF1 averages F1 over classes.
func (c *Confusion) MacroF1() float64 {
	var s float64
	for k := 0; k < c.K; k++ {
		s += c.F1(k)
	}
	return s / float64(c.K)
}

// String renders the matrix with optional class names.
func (c *Confusion) String() string {
	name := func(i int) string {
		if i < len(c.Names) && c.Names[i] != "" {
			n := c.Names[i]
			if len(n) > 8 {
				n = n[:8]
			}
			return n
		}
		return fmt.Sprintf("c%d", i)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10s", "truth\\pred")
	for p := 0; p < c.K; p++ {
		fmt.Fprintf(&b, "%9s", name(p))
	}
	b.WriteString("\n")
	for t := 0; t < c.K; t++ {
		fmt.Fprintf(&b, "%10s", name(t))
		for p := 0; p < c.K; p++ {
			fmt.Fprintf(&b, "%9d", c.Counts[t][p])
		}
		b.WriteString("\n")
	}
	return b.String()
}
