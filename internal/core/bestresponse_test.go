package core

import (
	"errors"
	"testing"

	"sprintgame/internal/dist"
)

// bestResponsePoint is one point of the population's best-response map:
// assume tripping probability Ptrip, let every agent best-respond, and
// compute the tripping probability their behavior actually induces.
type bestResponsePoint struct {
	// Assumed is the tripping probability agents believe.
	Assumed float64
	// Threshold is the best-response threshold at that belief.
	Threshold float64
	// SprintProb and Sprinters describe the induced population behavior.
	SprintProb float64
	Sprinters  float64
	// Induced is the tripping probability the behavior produces. A fixed
	// point Induced == Assumed is a mean-field equilibrium.
	Induced float64
}

// bestResponseCurve evaluates the map P -> P'(P) on a grid of beliefs.
// It solves each belief with SolveBellman and then searches the tail
// with SprintProbability, so it is an unfused reference for
// solveClass, which reads Eq. (9) off the solve's crossover index.
// The curve makes the game's equilibrium structure visible:
//
//   - where the curve crosses the diagonal, the game has a mean-field
//     equilibrium;
//   - §6.4's Prisoner's Dilemma corresponds to the curve lying strictly
//     above zero at P = 0 when recovery is ruinous: a no-trip world is
//     not self-consistent, because best responses to it sprint often
//     enough to trip the breaker.
func bestResponseCurve(f *dist.Discrete, cfg Config, beliefs []float64) ([]bestResponsePoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if f == nil || f.Len() == 0 {
		return nil, errors.New("core: empty utility density")
	}
	if len(beliefs) == 0 {
		return nil, errors.New("core: no belief grid")
	}
	out := make([]bestResponsePoint, 0, len(beliefs))
	for _, p := range beliefs {
		vals, err := SolveBellman(f, p, cfg)
		if err != nil {
			return nil, err
		}
		ps := SprintProbability(f, vals.Threshold)
		ns := ps * ActiveFraction(ps, cfg.Pc) * float64(cfg.N)
		out = append(out, bestResponsePoint{
			Assumed:    p,
			Threshold:  vals.Threshold,
			SprintProb: ps,
			Sprinters:  ns,
			Induced:    cfg.Trip.Ptrip(ns),
		})
	}
	return out, nil
}

func TestBestResponseCurveValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := bestResponseCurve(nil, cfg, []float64{0}); err == nil {
		t.Error("nil density should error")
	}
	if _, err := bestResponseCurve(bimodalDensity(), cfg, nil); err == nil {
		t.Error("empty grid should error")
	}
	bad := cfg
	bad.N = 0
	if _, err := bestResponseCurve(bimodalDensity(), bad, []float64{0}); err == nil {
		t.Error("invalid config should error")
	}
}

func TestBestResponseCurveShape(t *testing.T) {
	f := density(t, "decision")
	cfg := testConfig()
	beliefs := []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1}
	pts, err := bestResponseCurve(f, cfg, beliefs)
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
	fp, err := bestResponseCurve(f, cfg, []float64{eq.Ptrip})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fp[0].Induced, eq.Ptrip, 0.02) {
		t.Errorf("equilibrium not a fixed point: induced %v at assumed %v",
			fp[0].Induced, eq.Ptrip)
	}
	// Algorithm 1's last iteration solved at eq.Ptrip, so its fused
	// outcome must match the unfused curve bit for bit.
	if o := eq.Classes[0]; o.Threshold != fp[0].Threshold || o.SprintProb != fp[0].SprintProb {
		t.Errorf("fused outcome (uT %v, ps %v) differs from the curve's (uT %v, ps %v)",
			o.Threshold, o.SprintProb, fp[0].Threshold, fp[0].SprintProb)
	}
}

// noTripSelfConsistent is §6.4's check: a belief that the breaker never
// trips is self-consistent iff best responses to Ptrip = 0 keep the
// expected sprinters strictly below Nmin. When recovery is ruinous
// (pr -> 1) and it is not, every equilibrium involves tripping the
// breaker: the Prisoner's Dilemma.
func noTripSelfConsistent(t *testing.T, f *dist.Discrete, cfg Config) (bool, bestResponsePoint) {
	t.Helper()
	pts, err := bestResponseCurve(f, cfg, []float64{0})
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
