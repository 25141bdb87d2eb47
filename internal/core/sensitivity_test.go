package core

import (
	"math"
	"testing"
)

func TestSweepPcThresholdRises(t *testing.T) {
	// Figure 13, panel 1: thresholds increase with cooling duration.
	f := density(t, "decision")
	pts, err := SweepPc(f, testConfig(), []float64{0.05, 0.25, 0.5, 0.75, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Threshold < pts[i-1].Threshold-1e-6 {
			t.Errorf("threshold fell from %v to %v as pc rose to %v",
				pts[i-1].Threshold, pts[i].Threshold, pts[i].Param)
		}
	}
	// The rise is substantial across the sweep.
	if pts[len(pts)-1].Threshold <= pts[0].Threshold {
		t.Error("threshold did not rise across the pc sweep")
	}
}

func TestSweepPrThresholdInsensitive(t *testing.T) {
	// Figure 13, panel 2: thresholds are (nearly) insensitive to recovery
	// duration — each agent sprints for her own benefit while hoping
	// others avoid the breaker.
	f := density(t, "decision")
	pts, err := SweepPr(f, testConfig(), []float64{0.1, 0.3, 0.5, 0.7, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	min, max := pts[0].Threshold, pts[0].Threshold
	for _, p := range pts {
		if p.Threshold < min {
			min = p.Threshold
		}
		if p.Threshold > max {
			max = p.Threshold
		}
	}
	if (max-min)/max > 0.15 {
		t.Errorf("threshold varies %v..%v across pr, want near-flat", min, max)
	}
}

func TestSweepNMinSmallBoundsLowerThresholds(t *testing.T) {
	// Figure 13, panel 3: when Nmin is small the probability of tripping
	// is high and agents sprint aggressively (lower thresholds).
	f := density(t, "decision")
	pts, err := SweepNMin(f, testConfig(), []float64{50, 150, 250, 450, 650})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Threshold >= pts[len(pts)-1].Threshold {
		t.Errorf("threshold at Nmin=50 (%v) should be below threshold at Nmin=650 (%v)",
			pts[0].Threshold, pts[len(pts)-1].Threshold)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Threshold < pts[i-1].Threshold-0.05 {
			t.Errorf("threshold not (weakly) rising in Nmin at %v", pts[i].Param)
		}
	}
}

func TestSweepNMaxSmallBoundsLowerThresholds(t *testing.T) {
	// Figure 13, panel 4: same effect for Nmax.
	f := density(t, "decision")
	pts, err := SweepNMax(f, testConfig(), []float64{300, 450, 600, 750, 900})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Threshold > pts[len(pts)-1].Threshold+1e-6 {
		t.Errorf("threshold should not fall as Nmax grows: %v .. %v",
			pts[0].Threshold, pts[len(pts)-1].Threshold)
	}
}

func TestEfficiencyCurveDecays(t *testing.T) {
	// Figure 12: efficiency falls as recovery becomes more expensive
	// (pr -> 1).
	f := density(t, "decision")
	pts, err := EfficiencyCurve(f, testConfig(), []float64{0.2, 0.6, 0.88, 0.96, 0.99})
	if err != nil {
		t.Fatal(err)
	}
	first, last := pts[0].Threshold, pts[len(pts)-1].Threshold // Threshold carries the ratio
	if first < 0.7 {
		t.Errorf("efficiency at cheap recovery = %v, want high", first)
	}
	if last >= first {
		t.Errorf("efficiency did not decay: %v -> %v", first, last)
	}
	for _, p := range pts {
		if p.Threshold < 0 || p.Threshold > 1.01 {
			t.Errorf("efficiency %v at pr=%v out of range", p.Threshold, p.Param)
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	f := density(t, "decision")
	cfg := testConfig()
	if _, err := SweepPc(f, cfg, []float64{0.5, 1.5}); err == nil {
		t.Error("sweep should propagate solver errors")
	}
}

// TestSweepDescendingPcKeepsLargestFixedPoint: along a descending Pc grid
// the equilibrium Ptrip rises from point to point, so a sweep seeding
// each point from its predecessor starts below the largest fixed point
// and can settle on a lower one (decision at Pc 0.5: 0.011729 against
// 0.015077; cc at Pc 0.05: 0.439019 against 0.443158). Every point must
// equal a per-point FindEquilibrium.
func TestSweepDescendingPcKeepsLargestFixedPoint(t *testing.T) {
	grid := []float64{0.95, 0.8, 0.65, 0.5, 0.35, 0.2, 0.05}
	for _, name := range []string{"decision", "cc"} {
		f := density(t, name)
		cfg := testConfig()
		pts, err := SweepPc(f, cfg, grid)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, pc := range grid {
			c := cfg
			c.Pc = pc
			eq, err := SingleClass("sweep", f, c)
			if err != nil {
				t.Fatalf("%s pc=%v: %v", name, pc, err)
			}
			if d := math.Abs(pts[i].Ptrip - eq.Ptrip); d > cfg.FixedPointTol {
				t.Errorf("%s pc=%v: sweep ptrip %.6f, FindEquilibrium %.6f", name, pc, pts[i].Ptrip, eq.Ptrip)
			}
		}
	}
}
