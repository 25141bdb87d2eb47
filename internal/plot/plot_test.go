package plot

import (
	"bytes"
	"strings"
	"testing"
)

// TestSparkline checks the glyph scaling Chart draws each series with.
func TestSparkline(t *testing.T) {
	if sparklineScaled(nil, 0, 1) != "" {
		t.Error("empty input should give empty sparkline")
	}
	s := sparklineScaled([]float64{0, 1, 2, 3}, 0, 3)
	if len([]rune(s)) != 4 {
		t.Fatalf("length %d", len([]rune(s)))
	}
	runes := []rune(s)
	// Monotone input yields monotone glyph heights, lowest to tallest.
	for i := 1; i < len(runes); i++ {
		if indexOf(runes[i]) < indexOf(runes[i-1]) {
			t.Fatalf("sparkline not monotone: %q", s)
		}
	}
	if runes[0] != blocks[0] || runes[3] != blocks[len(blocks)-1] {
		t.Errorf("sparkline should span the glyph range: %q", s)
	}
	// A constant series (empty scale) renders without panicking and
	// uses one glyph.
	c := []rune(sparklineScaled([]float64{5, 5, 5}, 5, 5))
	if c[0] != c[1] || c[1] != c[2] {
		t.Errorf("constant series should use one glyph: %q", string(c))
	}
}

func indexOf(r rune) int {
	for i, b := range blocks {
		if b == r {
			return i
		}
	}
	return -1
}

func TestBin(t *testing.T) {
	xs := []float64{1, 1, 3, 3, 5, 5}
	out := Bin(xs, 3)
	if len(out) != 3 || out[0] != 1 || out[1] != 3 || out[2] != 5 {
		t.Errorf("binned = %v", out)
	}
	// Shorter than width: copied through.
	same := Bin(xs, 10)
	if len(same) != 6 {
		t.Errorf("short series length %d", len(same))
	}
	same[0] = 99
	if xs[0] == 99 {
		t.Error("Bin aliased its input")
	}
	if len(Bin(nil, 5)) != 0 {
		t.Error("nil input should give empty output")
	}
}

func TestChart(t *testing.T) {
	var buf bytes.Buffer
	err := Chart(&buf, "sprinters", 20,
		Series{Label: "greedy", Values: []float64{0, 500, 0, 500}},
		Series{Label: "E-T", Values: []float64{250, 250, 250, 250}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sprinters", "greedy", "E-T", "scale [0, 500]"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// Empty chart renders a placeholder.
	buf.Reset()
	if err := Chart(&buf, "empty", 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(no data)") {
		t.Error("empty chart should say so")
	}
}
