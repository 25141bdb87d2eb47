package dist

import (
	"math"
	"testing"
)

func TestTrapezoidPolynomial(t *testing.T) {
	// Trapezoid is exact for linear functions.
	got := Trapezoid(func(x float64) float64 { return 2*x + 1 }, 0, 3, 1)
	if !almost(got, 12, 1e-12) {
		t.Errorf("linear integral = %v", got)
	}
	got = Trapezoid(func(x float64) float64 { return x * x }, 0, 1, 2000)
	if !almost(got, 1.0/3, 1e-6) {
		t.Errorf("quadratic integral = %v", got)
	}
}

func TestTrapezoidMinPanels(t *testing.T) {
	// n < 1 should be coerced, not crash.
	got := Trapezoid(func(x float64) float64 { return 1 }, 0, 2, 0)
	if !almost(got, 2, 1e-12) {
		t.Errorf("integral = %v", got)
	}
}

func TestSimpsonExactForCubics(t *testing.T) {
	got := Simpson(func(x float64) float64 { return x * x * x }, 0, 2, 2)
	if !almost(got, 4, 1e-12) {
		t.Errorf("cubic integral = %v", got)
	}
	// Odd n gets rounded up rather than failing.
	got = Simpson(func(x float64) float64 { return x }, 0, 1, 3)
	if !almost(got, 0.5, 1e-12) {
		t.Errorf("integral = %v", got)
	}
}

func TestSimpsonTranscendental(t *testing.T) {
	got := Simpson(math.Sin, 0, math.Pi, 200)
	if !almost(got, 2, 1e-8) {
		t.Errorf("sin integral = %v", got)
	}
}

func TestBisectRoot(t *testing.T) {
	root := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if !almost(root, math.Sqrt2, 1e-10) {
		t.Errorf("root = %v", root)
	}
}

func TestBisectExactEndpoints(t *testing.T) {
	if got := Bisect(func(x float64) float64 { return x }, 0, 1, 1e-9); got != 0 {
		t.Errorf("root at left endpoint = %v", got)
	}
	if got := Bisect(func(x float64) float64 { return x - 1 }, 0, 1, 1e-9); got != 1 {
		t.Errorf("root at right endpoint = %v", got)
	}
}

func TestBisectNoBracket(t *testing.T) {
	// No sign change: returns endpoint with smaller |g|.
	got := Bisect(func(x float64) float64 { return x + 10 }, 0, 1, 1e-9)
	if got != 0 {
		t.Errorf("non-bracketing bisect = %v, want 0", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 1, 3, 3.5, 9, 100, -7} {
		h.Add(x)
	}
	if h.total != 7 {
		t.Errorf("total = %v", h.total)
	}
	// Out-of-range samples clamp to end bins.
	if h.counts[0] != 3 { // 0.5, 1, -7
		t.Errorf("bin 0 count = %v", h.counts[0])
	}
	if h.counts[4] != 2 { // 9, 100
		t.Errorf("bin 4 count = %v", h.counts[4])
	}
	if len(h.counts) != 5 {
		t.Errorf("bins = %d", len(h.counts))
	}
	if h.BinCenter(0) != 1 || h.BinCenter(1) != 3 {
		t.Errorf("bin centers = %v, %v", h.BinCenter(0), h.BinCenter(1))
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins should error")
	}
	if _, err := NewHistogram(1, 1, 3); err == nil {
		t.Error("empty range should error")
	}
}

func TestHistogramDensityNormalization(t *testing.T) {
	h, _ := NewHistogram(0, 1, 10)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i%10)/10 + 0.05)
	}
	d, err := h.Discrete()
	if err != nil {
		t.Fatal(err)
	}
	mass := 0.0
	for i := 0; i < d.Len(); i++ {
		x, p := d.Atom(i)
		if x != h.BinCenter(i) || !almost(p, 0.1, 1e-12) {
			t.Errorf("atom %d = (%v, %v), want (%v, 0.1)", i, x, p, h.BinCenter(i))
		}
		mass += p
	}
	if !almost(mass, 1, 1e-9) {
		t.Errorf("histogram mass = %v", mass)
	}
}

func TestHistogramDiscreteAndMode(t *testing.T) {
	h, _ := NewHistogram(0, 3, 3)
	h.AddWeighted(0.5, 1)
	h.AddWeighted(1.5, 5)
	h.AddWeighted(2.5, 2)
	d, err := h.Discrete()
	if err != nil {
		t.Fatal(err)
	}
	// The fullest bin is the heaviest atom.
	if x, p := d.Atom(1); x != 1.5 || !almost(p, 5.0/8, 1e-12) {
		t.Errorf("mode atom = (%v, %v), want (1.5, 0.625)", x, p)
	}
	if !almost(d.TailProb(1), 7.0/8, 1e-12) {
		t.Errorf("tail = %v", d.TailProb(1))
	}
}

func TestHistogramEmptyDiscrete(t *testing.T) {
	h, _ := NewHistogram(0, 1, 2)
	if _, err := h.Discrete(); err == nil {
		t.Error("empty histogram Discrete should error")
	}
}

func TestHistogramIgnoresBadWeights(t *testing.T) {
	h, _ := NewHistogram(0, 1, 2)
	h.AddWeighted(0.5, -1)
	h.AddWeighted(0.5, 0)
	h.Add(math.NaN())
	if h.total != 0 {
		t.Errorf("total = %v", h.total)
	}
}
