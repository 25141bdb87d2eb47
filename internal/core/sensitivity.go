package core

import (
	"fmt"

	"sprintgame/internal/dist"
	"sprintgame/internal/power"
)

// SensitivityPoint is one point of a Figure 13 sweep: a parameter value
// and the equilibrium threshold it induces.
type SensitivityPoint struct {
	Param     float64
	Threshold float64
	Ptrip     float64
	Sprinters float64
}

// mutator rewrites a Config for a parameter value.
type mutator func(cfg *Config, v float64)

// sweep solves each grid point cold, from the paper's Ptrip = 1
// initialization. Seeding a point from its neighbour's Ptrip would be a
// seed below the largest fixed point whenever the equilibrium rises
// along the grid, and the descent would then settle on a lower one.
func sweep(f *dist.Discrete, base Config, values []float64, mut mutator) ([]SensitivityPoint, error) {
	out := make([]SensitivityPoint, 0, len(values))
	for _, v := range values {
		cfg := base
		mut(&cfg, v)
		eq, err := SingleClass("sweep", f, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: sweep at %v: %w", v, err)
		}
		out = append(out, SensitivityPoint{
			Param:     v,
			Threshold: eq.Classes[0].Threshold,
			Ptrip:     eq.Ptrip,
			Sprinters: eq.Sprinters,
		})
	}
	return out, nil
}

// SweepPc computes the equilibrium threshold across cooling persistence
// values (Figure 13, first panel). The paper: thresholds rise as cooling
// lengthens — sprinting mistakenly costs more epochs.
func SweepPc(f *dist.Discrete, base Config, values []float64) ([]SensitivityPoint, error) {
	return sweep(f, base, values, func(cfg *Config, v float64) { cfg.Pc = v })
}

// SweepPr computes the equilibrium threshold across recovery persistence
// values (Figure 13, second panel). The paper: thresholds are insensitive
// to recovery cost — each agent hopes others avoid tripping the breaker.
func SweepPr(f *dist.Discrete, base Config, values []float64) ([]SensitivityPoint, error) {
	return sweep(f, base, values, func(cfg *Config, v float64) { cfg.Pr = v })
}

// SweepNMin computes the equilibrium threshold across Nmin (Figure 13,
// third panel), holding Nmax fixed at the base config's value.
func SweepNMin(f *dist.Discrete, base Config, values []float64) ([]SensitivityPoint, error) {
	_, nmax := base.Trip.Bounds()
	return sweep(f, base, values, func(cfg *Config, v float64) {
		hi := nmax
		if v > hi {
			hi = v
		}
		cfg.Trip = power.LinearTripModel{NMin: v, NMax: hi}
	})
}

// SweepNMax computes the equilibrium threshold across Nmax (Figure 13,
// fourth panel), holding Nmin fixed at the base config's value.
func SweepNMax(f *dist.Discrete, base Config, values []float64) ([]SensitivityPoint, error) {
	nmin, _ := base.Trip.Bounds()
	return sweep(f, base, values, func(cfg *Config, v float64) {
		lo := nmin
		if v < lo {
			lo = v
		}
		cfg.Trip = power.LinearTripModel{NMin: lo, NMax: v}
	})
}

// EfficiencyCurve evaluates §6.4's efficiency (E-T rate / C-T rate) for a
// range of recovery persistence values — Figure 12. As pr approaches 1,
// recovery becomes ruinous and the equilibrium's efficiency collapses
// toward the Prisoner's Dilemma.
func EfficiencyCurve(f *dist.Discrete, base Config, prs []float64) ([]SensitivityPoint, error) {
	out := make([]SensitivityPoint, 0, len(prs))
	for _, pr := range prs {
		cfg := base
		cfg.Pr = pr
		ratio, et, _, err := Efficiency(f, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: efficiency at pr=%v: %w", pr, err)
		}
		out = append(out, SensitivityPoint{
			Param:     pr,
			Threshold: ratio, // the curve's y-value
			Ptrip:     et.Ptrip,
			Sprinters: et.Sprinters,
		})
	}
	return out, nil
}
