package dist

import (
	"errors"
	"fmt"
	"math"
)

// Histogram is a fixed-width binned counter over [lo, hi). Samples outside
// the range are clamped into the end bins so no mass is lost; this mirrors
// how the paper's profiler buckets observed speedups.
type Histogram struct {
	lo, hi float64
	width  float64
	counts []float64
	total  float64
}

// NewHistogram creates a histogram over [lo, hi) with the given number of
// equal-width bins.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, errors.New("dist: histogram needs at least one bin")
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("dist: invalid histogram range [%v, %v)", lo, hi)
	}
	return &Histogram{
		lo:     lo,
		hi:     hi,
		width:  (hi - lo) / float64(bins),
		counts: make([]float64, bins),
	}, nil
}

// Add records one observation of x.
func (h *Histogram) Add(x float64) { h.AddWeighted(x, 1) }

// AddWeighted records an observation of x with the given weight.
func (h *Histogram) AddWeighted(x, w float64) {
	if w <= 0 || math.IsNaN(x) {
		return
	}
	h.counts[h.binIndex(x)] += w
	h.total += w
}

func (h *Histogram) binIndex(x float64) int {
	i := int((x - h.lo) / h.width)
	if i < 0 {
		return 0
	}
	if i >= len(h.counts) {
		return len(h.counts) - 1
	}
	return i
}

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.lo + (float64(i)+0.5)*h.width
}

// Discrete converts the histogram into a Discrete PMF at bin centers.
func (h *Histogram) Discrete() (*Discrete, error) {
	if h.total == 0 {
		return nil, errors.New("dist: empty histogram")
	}
	xs := make([]float64, len(h.counts))
	for i := range xs {
		xs[i] = h.BinCenter(i)
	}
	return NewDiscrete(xs, h.counts)
}
