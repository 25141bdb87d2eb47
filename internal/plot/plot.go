// Package plot renders series as ASCII charts for the terminal: the
// reproduction's "figures" (sprinter timelines, densities, efficiency
// curves) become directly viewable from cmd/experiments -plot without
// any plotting dependency.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// blocks are eighth-height bar glyphs, lowest to tallest.
var blocks = []rune(" ▁▂▃▄▅▆▇█")

// Bin shrinks a series to width points by averaging consecutive windows;
// series shorter than width are returned as-is (copied).
func Bin(xs []float64, width int) []float64 {
	if width <= 0 || len(xs) <= width {
		out := make([]float64, len(xs))
		copy(out, xs)
		return out
	}
	out := make([]float64, width)
	for i := 0; i < width; i++ {
		lo := i * len(xs) / width
		hi := (i + 1) * len(xs) / width
		if hi <= lo {
			hi = lo + 1
		}
		sum := 0.0
		for _, x := range xs[lo:hi] {
			sum += x
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// Series is one labelled line of a chart.
type Series struct {
	Label  string
	Values []float64
}

// Chart writes labelled sparklines with a shared scale, a compact
// text rendering of a multi-series figure.
func Chart(w io.Writer, title string, width int, series ...Series) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, x := range s.Values {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
	}
	if math.IsInf(lo, 1) {
		_, err := fmt.Fprintln(w, "(no data)")
		return err
	}
	labelWidth := 0
	for _, s := range series {
		if len(s.Label) > labelWidth {
			labelWidth = len(s.Label)
		}
	}
	for _, s := range series {
		// Scale against the global bounds so series are comparable.
		line := sparklineScaled(Bin(s.Values, width), lo, hi)
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", labelWidth, s.Label, line); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-*s  scale [%.3g, %.3g]\n", labelWidth, "", lo, hi)
	return err
}

func sparklineScaled(xs []float64, lo, hi float64) string {
	var b strings.Builder
	for _, x := range xs {
		idx := 0
		if hi > lo {
			idx = int((x - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(blocks) {
			idx = len(blocks) - 1
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}
