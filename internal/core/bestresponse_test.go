package core

import (
	"testing"

	"sprintgame/internal/dist"
)

func TestBestResponseCurveValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := BestResponseCurve(nil, cfg, []float64{0}); err == nil {
		t.Error("nil density should error")
	}
	if _, err := BestResponseCurve(bimodalDensity(), cfg, nil); err == nil {
		t.Error("empty grid should error")
	}
	bad := cfg
	bad.N = 0
	if _, err := BestResponseCurve(bimodalDensity(), bad, []float64{0}); err == nil {
		t.Error("invalid config should error")
	}
}

func TestBestResponseCurveShape(t *testing.T) {
	f := density(t, "decision")
	cfg := testConfig()
	beliefs := []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1}
	pts, err := BestResponseCurve(f, cfg, beliefs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if p.Assumed != beliefs[i] {
			t.Fatalf("grid order broken")
		}
		if p.Induced < 0 || p.Induced > 1 {
			t.Errorf("induced P = %v", p.Induced)
		}
		// Higher assumed P lowers thresholds and raises sprinting.
		if i > 0 {
			if p.Threshold > pts[i-1].Threshold+1e-9 {
				t.Errorf("threshold rose with belief at %v", p.Assumed)
			}
			if p.Sprinters < pts[i-1].Sprinters-1e-6 {
				t.Errorf("sprinters fell with belief at %v", p.Assumed)
			}
		}
	}
	// The equilibrium belief is (approximately) a fixed point: find the
	// diagonal crossing and compare with Algorithm 1.
	eq, err := SingleClass("decision", f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := BestResponseCurve(f, cfg, []float64{eq.Ptrip})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fp[0].Induced, eq.Ptrip, 0.02) {
		t.Errorf("equilibrium not a fixed point: induced %v at assumed %v",
			fp[0].Induced, eq.Ptrip)
	}
}

// noTripSelfConsistent is §6.4's check: a belief that the breaker never
// trips is self-consistent iff best responses to Ptrip = 0 keep the
// expected sprinters strictly below Nmin. When recovery is ruinous
// (pr -> 1) and it is not, every equilibrium involves tripping the
// breaker: the Prisoner's Dilemma.
func noTripSelfConsistent(t *testing.T, f *dist.Discrete, cfg Config) (bool, BestResponsePoint) {
	t.Helper()
	pts, err := BestResponseCurve(f, cfg, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	nmin, _ := cfg.Trip.Bounds()
	return pts[0].Sprinters < nmin, pts[0]
}

func TestNoTripEquilibriumDecisionTree(t *testing.T) {
	// For Decision Tree under Table 2 defaults, best responses to a
	// no-trip world sprint beyond Nmin: no trip-free equilibrium exists,
	// matching Figure 6's occasional emergencies.
	f := density(t, "decision")
	ok, pt := noTripSelfConsistent(t, f, testConfig())
	if ok {
		t.Errorf("expected no trip-free equilibrium; best response to P=0 yields %v sprinters", pt.Sprinters)
	}
}

func TestNoTripEquilibriumPageRank(t *testing.T) {
	// PageRank's high threshold keeps best-response sprinters below Nmin
	// even at P=0: a trip-free equilibrium exists (Figure 6's E-T panel
	// for such workloads shows no emergencies).
	f := density(t, "pagerank")
	ok, pt := noTripSelfConsistent(t, f, testConfig())
	if !ok {
		t.Errorf("expected a trip-free equilibrium; got %v sprinters at P=0", pt.Sprinters)
	}
}

func TestPrisonersDilemmaAtRuinousRecovery(t *testing.T) {
	// §6.4: with pr ~ 1, we'd like an equilibrium that never trips, but
	// for aggressive-profile workloads none exists: the best response to
	// P=0 already crosses Nmin, and recovery is absorbing.
	f := density(t, "linear")
	cfg := testConfig()
	cfg.Pr = 0.999
	ok, pt := noTripSelfConsistent(t, f, cfg)
	if ok {
		t.Error("linear regression should have no trip-free equilibrium")
	}
	if pt.SprintProb < 0.99 {
		t.Errorf("best response to a quiet world should be greedy, ps = %v", pt.SprintProb)
	}
}
