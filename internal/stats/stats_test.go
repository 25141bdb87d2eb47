package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance of this classic example is 32/7.
	if got := Variance(xs); !almostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if Variance([]float64{1}) != 0 {
		t.Error("Variance of single sample should be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	if Min(xs) != -2 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be +Inf/-Inf")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-0.5, 1}, {1.5, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile of empty should be 0")
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.25); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("interpolated quantile = %v, want 2.5", got)
	}
}

func TestMedianUnsortedInput(t *testing.T) {
	if got := Quantile([]float64{9, 1, 5}, 0.5); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("unexpected summary %+v", s)
	}
	if (Summarize(nil) != Summary{}) {
		t.Error("empty Summarize should be zero value")
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	r := NewRNG(99)
	xs := make([]float64, 1000)
	acc := Accumulator{}
	for i := range xs {
		xs[i] = r.NormAt(3, 2)
		acc.Add(xs[i])
	}
	if !almostEqual(acc.Mean(), Mean(xs), 1e-9) {
		t.Errorf("online mean %v vs batch %v", acc.Mean(), Mean(xs))
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	acc := Accumulator{}
	if acc.Mean() != 0 {
		t.Error("empty accumulator should have zero mean")
	}
	acc.Add(7)
	if acc.Mean() != 7 {
		t.Error("single-sample accumulator wrong")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp wrong")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	r := NewRNG(103)
	f := func(seed uint32) bool {
		rr := NewRNG(uint64(seed))
		n := rr.Intn(50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.NormAt(0, 10)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			if v < Min(xs)-1e-12 || v > Max(xs)+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is never negative and translation-invariant.
func TestVarianceProperties(t *testing.T) {
	f := func(seed uint32) bool {
		rr := NewRNG(uint64(seed))
		n := rr.Intn(40) + 2
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rr.NormAt(0, 5)
			ys[i] = xs[i] + 100
		}
		v1, v2 := Variance(xs), Variance(ys)
		return v1 >= 0 && almostEqual(v1, v2, 1e-6*(1+v1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
