package core

import (
	"errors"
	"fmt"
	"math"

	"sprintgame/internal/dist"
	"sprintgame/internal/telemetry"
)

// AgentClass is a group of agents running the same application type:
// Count agents sharing one utility density. Heterogeneous racks (§6.2,
// Figure 9) have several classes.
type AgentClass struct {
	// Name labels the class (usually the benchmark name).
	Name string
	// Count is the number of agents of this class.
	Count int
	// Density is the class's utility density f(u).
	Density *dist.Discrete
}

// Validate checks the class.
func (c AgentClass) Validate() error {
	if c.Count <= 0 {
		return fmt.Errorf("core: class %q needs agents", c.Name)
	}
	if c.Density == nil || c.Density.Len() == 0 {
		return fmt.Errorf("core: class %q has no utility density", c.Name)
	}
	return nil
}

// ClassOutcome is one class's equilibrium strategy and its implied
// population statistics.
type ClassOutcome struct {
	Name string
	// Threshold is the class's equilibrium sprinting threshold uT.
	Threshold float64
	// SprintProb is ps (Eq. 9): probability an active agent sprints.
	SprintProb float64
	// ActiveFrac is pA: stationary probability of being active (vs
	// cooling), conditioned on no rack recovery.
	ActiveFrac float64
	// ExpectedSprinters is this class's contribution to nS (Eq. 10).
	ExpectedSprinters float64
	// Values is the class's dynamic program at the equilibrium Ptrip.
	Values Values
}

// Equilibrium is a mean-field equilibrium of the sprinting game: a
// tripping probability and per-class threshold strategies that are
// mutually consistent (§4.4).
type Equilibrium struct {
	// Ptrip is the stationary probability of tripping the breaker.
	Ptrip float64
	// Sprinters is the expected total number of sprinters per epoch.
	Sprinters float64
	// Classes holds each class's strategy, in input order.
	Classes []ClassOutcome
	// Iterations is the number of Algorithm 1 iterations performed.
	Iterations int
	// Residuals records, per iteration, the fixed-point residual
	// |Ptrip' - Ptrip| before the update (len == Iterations).
	Residuals []float64
	// Converged reports whether the fixed point met tolerance (false
	// means the caller got the best available approximation).
	Converged bool
}

// FindEquilibrium runs Algorithm 1 for one or more agent classes. Per the
// paper, the iteration starts from Ptrip = 1 and alternates: solve each
// class's dynamic program for the current Ptrip (exactly, see
// SolveBellman), derive thresholds and the expected number of
// sprinters, update Ptrip from the trip model, and repeat until
// stationary.
//
// The trip response T(p) — solve at p, then Eq. (11) — is monotone
// non-decreasing: a class's threshold does not rise with Ptrip, so its
// sprint probability ps does not fall, nS = ps·pA·N rises with ps, and
// Eq. (11) is non-decreasing in nS. Undamped iteration from Ptrip = 1 is
// therefore a descent that stays at or above every fixed point, and it
// converges to the largest one — the equilibrium Algorithm 1 selects —
// in a handful of steps with no damping. cfg.Damping below 1 still
// descends, only more slowly.
//
// The class counts must sum to cfg.N.
func FindEquilibrium(classes []AgentClass, cfg Config) (*Equilibrium, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(classes) == 0 {
		return nil, errors.New("core: no agent classes")
	}
	total := 0
	for _, c := range classes {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		total += c.Count
	}
	if total != cfg.N {
		return nil, fmt.Errorf("core: class counts sum to %d but config has N = %d", total, cfg.N)
	}

	cfg.Metrics.Counter("solver.runs").Inc()
	residualGauge := cfg.Metrics.Gauge("solver.residual")

	ptrip := 1.0 // Algorithm 1 initialization

	eq := &Equilibrium{Classes: make([]ClassOutcome, len(classes))}
	for iter := 1; iter <= cfg.MaxFixedPointIter; iter++ {
		// Span payloads are built behind nil checks: the Fields maps must
		// not cost an allocation per iteration on untraced solves.
		iterSpan := cfg.Span.Child("solver.iter")
		nS := 0.0
		for i := range classes {
			if err := solveClass(&classes[i], ptrip, cfg, &eq.Classes[i]); err != nil {
				if iterSpan != nil {
					iterSpan.EndWith(telemetry.Fields{"iter": iter, "error": err.Error()})
				}
				return nil, err
			}
			nS += eq.Classes[i].ExpectedSprinters
		}
		next := cfg.Trip.Ptrip(nS)
		residual := math.Abs(next - ptrip)
		eq.Sprinters = nS
		eq.Iterations = iter
		eq.Residuals = append(eq.Residuals, residual)
		residualGauge.Set(residual)
		if iterSpan != nil {
			iterSpan.EndWith(telemetry.Fields{
				"iter":      iter,
				"ptrip":     ptrip,
				"next":      next,
				"residual":  residual,
				"sprinters": nS,
			})
		}
		if residual < cfg.FixedPointTol {
			eq.Ptrip = ptrip
			eq.Converged = true
			finishSolve(cfg, eq)
			return eq, nil
		}
		ptrip += cfg.Damping * (next - ptrip)
	}
	eq.Ptrip = ptrip
	finishSolve(cfg, eq)
	return eq, nil
}

// solveClass solves one class's dynamic program and derives its
// population statistics (Eqs. 9-10).
func solveClass(c *AgentClass, ptrip float64, cfg Config, out *ClassOutcome) error {
	vals, err := solveBellman(c.Density, ptrip, cfg)
	if err != nil {
		return fmt.Errorf("core: class %q: %w", c.Name, err)
	}
	ps := SprintProbability(c.Density, vals.Threshold)
	pa := ActiveFraction(ps, cfg.Pc)
	*out = ClassOutcome{
		Name:              c.Name,
		Threshold:         vals.Threshold,
		SprintProb:        ps,
		ActiveFrac:        pa,
		ExpectedSprinters: ps * pa * float64(c.Count),
		Values:            vals,
	}
	return nil
}

// finishSolve records end-of-run solver telemetry.
func finishSolve(cfg Config, eq *Equilibrium) {
	cfg.Metrics.Histogram("solver.iterations", solverIterBuckets).Observe(float64(eq.Iterations))
	if eq.Converged {
		cfg.Metrics.Counter("solver.converged").Inc()
	} else {
		cfg.Metrics.Counter("solver.unconverged").Inc()
	}
}

// solverIterBuckets spans quick solves to the MaxFixedPointIter default.
var solverIterBuckets = telemetry.ExponentialBuckets(4, 2, 10)

// SingleClass is a convenience wrapper: all cfg.N agents run the same
// application.
func SingleClass(name string, density *dist.Discrete, cfg Config) (*Equilibrium, error) {
	return FindEquilibrium([]AgentClass{{Name: name, Count: cfg.N, Density: density}}, cfg)
}

// Outcome returns the outcome for the named class.
func (e *Equilibrium) Outcome(name string) (ClassOutcome, error) {
	for _, c := range e.Classes {
		if c.Name == name {
			return c, nil
		}
	}
	return ClassOutcome{}, fmt.Errorf("core: no class %q in equilibrium", name)
}

// SprintTimeShare returns the long-run fraction of (non-recovery) epochs
// a class's agent spends sprinting: ps * pA. This is the quantity plotted
// in Figure 11.
func (o ClassOutcome) SprintTimeShare() float64 {
	return o.SprintProb * o.ActiveFrac
}

// VerifyNoBeneficialDeviation checks the equilibrium property: given the
// equilibrium Ptrip, re-solving a class's dynamic program must return
// (numerically) the same threshold, i.e. the assigned strategy is a best
// response. It returns the largest absolute threshold discrepancy across
// classes.
func (e *Equilibrium) VerifyNoBeneficialDeviation(classes []AgentClass, cfg Config) (float64, error) {
	worst := 0.0
	for _, c := range classes {
		vals, err := SolveBellman(c.Density, e.Ptrip, cfg)
		if err != nil {
			return 0, err
		}
		o, err := e.Outcome(c.Name)
		if err != nil {
			return 0, err
		}
		if d := math.Abs(vals.Threshold - o.Threshold); d > worst {
			worst = d
		}
	}
	return worst, nil
}
