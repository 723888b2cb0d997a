package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestNewConfusionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=1 did not panic")
		}
	}()
	NewConfusion(1)
}

func TestObserveValidation(t *testing.T) {
	c := NewConfusion(3)
	if err := c.Observe(0, 3); err == nil {
		t.Fatal("accepted out-of-range prediction")
	}
	if err := c.Observe(-1, 0); err == nil {
		t.Fatal("accepted negative truth")
	}
	if err := c.ObserveAll([]int{0}, []int{0, 1}); err == nil {
		t.Fatal("accepted misaligned slices")
	}
}

func TestAccuracyAndTotals(t *testing.T) {
	c := NewConfusion(2)
	if err := c.ObserveAll([]int{0, 0, 1, 1}, []int{0, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if c.Total() != 4 {
		t.Fatalf("total %d", c.Total())
	}
	if got := c.Accuracy(); got != 0.75 {
		t.Fatalf("accuracy %v", got)
	}
	if NewConfusion(2).Accuracy() != 0 {
		t.Fatal("empty accuracy != 0")
	}
}

func TestPrecisionRecallF1(t *testing.T) {
	c := NewConfusion(2)
	// truth 1 predicted 1: 3; truth 1 predicted 0: 1;
	// truth 0 predicted 1: 2; truth 0 predicted 0: 4.
	for i := 0; i < 3; i++ {
		c.Observe(1, 1)
	}
	c.Observe(1, 0)
	c.Observe(0, 1)
	c.Observe(0, 1)
	for i := 0; i < 4; i++ {
		c.Observe(0, 0)
	}
	if got := c.Precision(1); math.Abs(got-3.0/5) > 1e-12 {
		t.Fatalf("precision %v", got)
	}
	if got := c.Recall(1); math.Abs(got-3.0/4) > 1e-12 {
		t.Fatalf("recall %v", got)
	}
	p, r := 3.0/5, 3.0/4
	if got := c.F1(1); math.Abs(got-2*p*r/(p+r)) > 1e-12 {
		t.Fatalf("f1 %v", got)
	}
	if c.MacroF1() <= 0 || c.MacroF1() > 1 {
		t.Fatalf("macro f1 %v", c.MacroF1())
	}
}

func TestDegenerateClassMetrics(t *testing.T) {
	c := NewConfusion(3)
	c.Observe(0, 0)
	// Class 2 never occurs nor is predicted.
	if c.Precision(2) != 0 || c.Recall(2) != 0 || c.F1(2) != 0 {
		t.Fatal("degenerate class metrics should be 0")
	}
}

func TestConfusionString(t *testing.T) {
	c := NewConfusion(2)
	c.Names = []string{"no-face", "face"}
	c.Observe(1, 1)
	s := c.String()
	if !strings.Contains(s, "no-face") || !strings.Contains(s, "face") {
		t.Fatalf("string missing names: %q", s)
	}
	// Unnamed fallback.
	c2 := NewConfusion(2)
	if !strings.Contains(c2.String(), "c0") {
		t.Fatal("fallback names missing")
	}
	// Long names truncate.
	c3 := NewConfusion(2)
	c3.Names = []string{"averyveryverylongname", "x"}
	if strings.Contains(c3.String(), "averyveryverylongname") {
		t.Fatal("long name not truncated")
	}
}
