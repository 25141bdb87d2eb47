package core

import (
	"errors"

	"sprintgame/internal/dist"
)

// BestResponsePoint is one point of the population's best-response map:
// assume tripping probability Ptrip, let every agent best-respond, and
// compute the tripping probability their behavior actually induces.
type BestResponsePoint struct {
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

// BestResponseCurve evaluates the map P -> P'(P) on a grid of beliefs.
// The curve makes the game's equilibrium structure visible:
//
//   - where the curve crosses the diagonal, the game has a mean-field
//     equilibrium;
//   - §6.4's Prisoner's Dilemma corresponds to the curve lying strictly
//     above zero at P = 0 when recovery is ruinous: a no-trip world is
//     not self-consistent, because best responses to it sprint often
//     enough to trip the breaker.
func BestResponseCurve(f *dist.Discrete, cfg Config, beliefs []float64) ([]BestResponsePoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if f == nil || f.Len() == 0 {
		return nil, errors.New("core: empty utility density")
	}
	if len(beliefs) == 0 {
		return nil, errors.New("core: no belief grid")
	}
	out := make([]BestResponsePoint, 0, len(beliefs))
	for _, p := range beliefs {
		vals, err := solveBellman(f, p, cfg)
		if err != nil {
			return nil, err
		}
		ps := SprintProbability(f, vals.Threshold)
		ns := ps * ActiveFraction(ps, cfg.Pc) * float64(cfg.N)
		out = append(out, BestResponsePoint{
			Assumed:    p,
			Threshold:  vals.Threshold,
			SprintProb: ps,
			Sprinters:  ns,
			Induced:    cfg.Trip.Ptrip(ns),
		})
	}
	return out, nil
}
