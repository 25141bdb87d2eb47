package policy

import (
	"errors"
	"fmt"

	"sprintgame/internal/core"
	"sprintgame/internal/dist"
)

// AdaptiveThreshold learns equilibrium thresholds online, without a
// coordinator: each application class keeps a stochastic-approximation
// estimate of the rack's tripping probability from the emergencies it
// observes, and periodically re-solves its own dynamic program against
// the estimate. If the estimates converge to the stationary trip
// frequency, the learned thresholds converge to the mean-field
// equilibrium's — Algorithm 1 executed by the population itself. This is
// the decentralized enforcement story of §2.3 taken one step further:
// not even the offline analysis needs the coordinator.
type AdaptiveThreshold struct {
	cfg core.Config
	// resolveEvery is the number of epochs between threshold re-solves.
	resolveEvery int

	classes map[string]*adaptiveClass

	// ptripEst is the Robbins-Monro estimate of the per-epoch trip
	// probability (shared: emergencies are rack-wide and public).
	ptripEst float64
	// observations counts epochs observed, driving the 1/t step size.
	observations int
}

type adaptiveClass struct {
	density   *dist.Discrete
	threshold float64
}

// NewAdaptiveThreshold builds the learning policy. densities maps each
// class to its (self-profiled) utility density; initialPtrip seeds the
// estimate — Algorithm 1 initializes at 1, and so does the default here.
func NewAdaptiveThreshold(cfg core.Config, densities map[string]*dist.Discrete, initialPtrip float64, resolveEvery int) (*AdaptiveThreshold, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(densities) == 0 {
		return nil, errors.New("policy: adaptive threshold needs class densities")
	}
	if initialPtrip < 0 || initialPtrip > 1 {
		return nil, fmt.Errorf("policy: initial ptrip %v is not a probability", initialPtrip)
	}
	if resolveEvery < 1 {
		return nil, errors.New("policy: resolveEvery must be at least 1")
	}
	a := &AdaptiveThreshold{
		cfg:          cfg,
		resolveEvery: resolveEvery,
		classes:      make(map[string]*adaptiveClass, len(densities)),
		ptripEst:     initialPtrip,
	}
	for name, d := range densities {
		if d == nil || d.Len() == 0 {
			return nil, fmt.Errorf("policy: class %q has an empty density", name)
		}
		a.classes[name] = &adaptiveClass{density: d}
	}
	if err := a.resolve(); err != nil {
		return nil, err
	}
	return a, nil
}

// resolve recomputes every class's threshold against the current
// estimate with the exact dynamic-program solve.
func (a *AdaptiveThreshold) resolve() error {
	for name, c := range a.classes {
		vals, err := core.SolveBellman(c.density, a.ptripEst, a.cfg)
		if err != nil {
			return fmt.Errorf("policy: adaptive resolve for %q: %w", name, err)
		}
		c.threshold = vals.Threshold
	}
	return nil
}

// Name implements Policy.
func (a *AdaptiveThreshold) Name() string { return "adaptive-threshold" }

// Decide implements Policy.
func (a *AdaptiveThreshold) Decide(ctx Context) bool {
	c, ok := a.classes[ctx.Class]
	if !ok {
		return false
	}
	return ctx.Utility > c.threshold
}

// EpochEnd implements Policy: update the trip-probability estimate with
// a decreasing (1/t) step and periodically re-solve thresholds.
func (a *AdaptiveThreshold) EpochEnd(epoch, _ int, tripped bool) {
	a.observations++
	step := 1.0 / float64(a.observations)
	obs := 0.0
	if tripped {
		obs = 1
	}
	a.ptripEst += step * (obs - a.ptripEst)
	if (epoch+1)%a.resolveEvery == 0 {
		// The solve cannot fail here: the config and densities were
		// validated at construction, the exact solve has no iteration
		// budget to exhaust, and the 1/t update keeps the estimate a
		// convex combination of probabilities.
		_ = a.resolve()
	}
}

// WakeUp implements Policy.
func (a *AdaptiveThreshold) WakeUp(int, int) {}

// PtripEstimate returns the current learned trip probability.
func (a *AdaptiveThreshold) PtripEstimate() float64 { return a.ptripEst }

// Thresholds returns the current learned thresholds by class, for
// inspection.
func (a *AdaptiveThreshold) Thresholds() map[string]float64 {
	out := make(map[string]float64, len(a.classes))
	for name, c := range a.classes {
		out[name] = c.threshold
	}
	return out
}
