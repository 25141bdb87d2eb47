package dist

import (
	"math"
	"testing"

	"sprintgame/internal/stats"
)

func TestKDEErrorsOnEmpty(t *testing.T) {
	if _, err := NewKDE(nil, 0); err == nil {
		t.Error("empty KDE should error")
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	r := stats.NewRNG(21)
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = r.NormAt(5, 1)
	}
	k, err := NewKDE(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := k.Support()
	integral := Simpson(k.PDF, lo, hi, 1000)
	if !almost(integral, 1, 0.01) {
		t.Errorf("KDE integral = %v", integral)
	}
}

func TestKDERecoverNormalShape(t *testing.T) {
	r := stats.NewRNG(23)
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = r.NormAt(0, 1)
	}
	k, _ := NewKDE(samples, 0)
	// Peak near 0, roughly 1/sqrt(2 pi).
	peak := k.PDF(0)
	if !almost(peak, 1/math.Sqrt(2*math.Pi), 0.05) {
		t.Errorf("peak density = %v", peak)
	}
	if k.PDF(0) <= k.PDF(2) {
		t.Error("density should decrease away from the mode")
	}
	if !almost(k.Mean(), 0, 0.05) {
		t.Errorf("KDE mean = %v", k.Mean())
	}
}

func TestKDEBimodalDetection(t *testing.T) {
	// Mirror of the PageRank density in Figure 10: most mass low, a mode
	// of large speedups above 10.
	r := stats.NewRNG(29)
	var samples []float64
	for i := 0; i < 3000; i++ {
		samples = append(samples, r.NormAt(2, 0.3))
	}
	for i := 0; i < 2000; i++ {
		samples = append(samples, r.NormAt(12, 1))
	}
	k, _ := NewKDE(samples, 0)
	valley := k.PDF(7)
	if k.PDF(2) <= valley || k.PDF(12) <= valley {
		t.Error("KDE should expose both modes")
	}
}

func TestKDEExplicitBandwidth(t *testing.T) {
	k, _ := NewKDE([]float64{1, 2, 3}, 0.7)
	if k.bandwidth != 0.7 {
		t.Errorf("bandwidth = %v", k.bandwidth)
	}
	if len(k.samples) != 3 {
		t.Errorf("N = %d", len(k.samples))
	}
}

func TestKDEDegenerateSample(t *testing.T) {
	// All samples identical: Silverman fallback must still give a valid
	// positive bandwidth and a density that integrates to ~1.
	k, err := NewKDE([]float64{4, 4, 4, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.bandwidth <= 0 {
		t.Fatalf("bandwidth = %v", k.bandwidth)
	}
	lo, hi := k.Support()
	if integral := Simpson(k.PDF, lo, hi, 500); !almost(integral, 1, 0.01) {
		t.Errorf("degenerate KDE integral = %v", integral)
	}
}

func TestKDECDFMonotone(t *testing.T) {
	r := stats.NewRNG(31)
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = r.Range(0, 10)
	}
	k, _ := NewKDE(samples, 0)
	lo, hi := k.Support()
	prev := -1e-12
	for i := 0; i <= 40; i++ {
		x := lo + (hi-lo)*float64(i)/40
		c := k.CDF(x)
		if c < prev-1e-9 {
			t.Fatalf("KDE CDF not monotone at %v", x)
		}
		prev = c
	}
	if k.CDF(hi) < 0.99 {
		t.Errorf("CDF at support end = %v", k.CDF(hi))
	}
}

func TestKDESampleDistribution(t *testing.T) {
	r := stats.NewRNG(37)
	base := make([]float64, 1000)
	for i := range base {
		base[i] = r.NormAt(3, 1)
	}
	k, _ := NewKDE(base, 0)
	acc := stats.Accumulator{}
	for i := 0; i < 20000; i++ {
		acc.Add(k.Sample(r))
	}
	if !almost(acc.Mean(), 3, 0.1) {
		t.Errorf("KDE sample mean = %v", acc.Mean())
	}
}

func TestKDECurve(t *testing.T) {
	k, _ := NewKDE([]float64{1, 2, 3, 4, 5}, 0)
	xs, ys := k.Curve(64)
	if len(xs) != 64 || len(ys) != 64 {
		t.Fatal("curve length wrong")
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatal("curve xs not increasing")
		}
	}
	for _, y := range ys {
		if y < 0 {
			t.Fatal("negative density on curve")
		}
	}
}
