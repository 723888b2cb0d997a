package imgproc

import (
	"strings"
	"testing"
)

func TestASCII(t *testing.T) {
	m := NewImage(16, 8)
	m.FillRect(8, 0, 16, 8, 255)
	art := m.ASCII(16)
	lines := 0
	for _, line := range splitLines(art) {
		if len(line) != 16 {
			t.Fatalf("line width %d, want 16: %q", len(line), line)
		}
		if line[0] != ' ' || line[15] != '@' {
			t.Fatalf("ramp mapping wrong: %q", line)
		}
		lines++
	}
	if lines != 4 { // 8 rows / 2 (cell aspect)
		t.Fatalf("lines %d, want 4", lines)
	}
	// Subsampling respects maxW.
	big := NewImage(128, 16)
	art2 := big.ASCII(32)
	for _, line := range splitLines(art2) {
		if len(line) > 32 {
			t.Fatalf("line exceeds maxW: %d", len(line))
		}
	}
	// Zero maxW falls back to 64.
	if NewImage(8, 4).ASCII(0) == "" {
		t.Fatal("default maxW produced nothing")
	}
}

func splitLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}
