// Package core implements the computational sprinting game: the Bellman
// equations for an agent's sprint/no-sprint decision (Eqs. 1-8 of the
// paper), the population's sprint distribution (Eqs. 9-10), the breaker
// tripping probability (Eq. 11), the mean-field equilibrium of Algorithm
// 1, the cooperative-threshold upper bound of §6, and the analytic
// throughput model used to compare policies.
package core

import (
	"errors"
	"fmt"

	"sprintgame/internal/power"
	"sprintgame/internal/telemetry"
)

// Config collects the game's technology and system parameters (Table 2)
// together with Algorithm 1's tolerance and iteration budget.
type Config struct {
	// N is the number of agents (chip multiprocessors) sharing the rack.
	N int
	// Trip maps the expected number of sprinters to the probability of
	// tripping the breaker (Eq. 11 / Figure 3).
	Trip power.TripModel
	// Pc is the probability an agent in the cooling state stays cooling
	// for another epoch; 1/(1-Pc) is the expected cooling duration.
	Pc float64
	// Pr is the probability an agent in the recovery state stays there;
	// 1/(1-Pr) is the expected recovery duration.
	Pr float64
	// Delta is the per-epoch discount factor applied to future utility.
	Delta float64

	// FixedPointTol terminates Algorithm 1 when the tripping probability
	// changes by less than this between iterations.
	FixedPointTol float64
	// MaxFixedPointIter caps Algorithm 1 iterations.
	MaxFixedPointIter int
	// Damping is the step size of the fixed-point update:
	// P <- (1-Damping)*P + Damping*P'. The default 1 is the undamped
	// Algorithm 1, a monotone descent to the largest fixed point (see
	// FindEquilibrium); smaller values exist for the abl-damping
	// ablation and only slow the descent.
	Damping float64

	// Metrics, when non-nil, receives solver metrics (solver.runs,
	// solver.iterations, solver.residual, ...). Nil disables metrics at
	// negligible cost.
	Metrics *telemetry.Registry
	// Span, when non-nil, is the parent span for this solve:
	// FindEquilibrium emits each outer Algorithm 1 iteration as a
	// solver.iter child through the span's own tracer, and
	// SolveCache.FindEquilibrium puts its cache.lookup and core.solve
	// spans under it. Like Metrics it is a telemetry sink, not a game
	// parameter, and is excluded from SolveKey.
	Span *telemetry.Span
}

// DefaultConfig returns the paper's Table 2 parameters with solver
// settings that converge for every catalog workload.
func DefaultConfig() Config {
	return Config{
		N:                 1000,
		Trip:              power.PaperTripModel(),
		Pc:                0.50,
		Pr:                0.88,
		Delta:             0.99,
		FixedPointTol:     1e-7,
		MaxFixedPointIter: 2000,
		Damping:           1,
	}
}

// Scaled rescales the configuration to a rack of n chips: N becomes n
// and the trip model becomes a LinearTripModel whose bounds scale by
// n/N, so the breaker trips at the same share of the rack (the paper's
// N=1000, Nmin=250, Nmax=750 at 256 chips is Nmin=64, Nmax=192). A
// configuration already at n chips is returned unchanged.
func (c Config) Scaled(n int) Config {
	if n == c.N {
		return c
	}
	nmin, nmax := c.Trip.Bounds()
	f := float64(n) / float64(c.N)
	c.Trip = power.LinearTripModel{NMin: nmin * f, NMax: nmax * f}
	c.N = n
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 {
		return errors.New("core: need at least one agent")
	}
	if c.Trip == nil {
		return errors.New("core: missing trip model")
	}
	if c.Pc < 0 || c.Pc > 1 {
		return fmt.Errorf("core: pc = %v is not a probability", c.Pc)
	}
	if c.Pr < 0 || c.Pr > 1 {
		return fmt.Errorf("core: pr = %v is not a probability", c.Pr)
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		return fmt.Errorf("core: discount factor %v outside (0, 1)", c.Delta)
	}
	if c.FixedPointTol <= 0 {
		return errors.New("core: fixed-point tolerance must be positive")
	}
	if c.MaxFixedPointIter <= 0 {
		return errors.New("core: fixed-point iteration cap must be positive")
	}
	if c.Damping <= 0 || c.Damping > 1 {
		return fmt.Errorf("core: damping %v outside (0, 1]", c.Damping)
	}
	return nil
}
