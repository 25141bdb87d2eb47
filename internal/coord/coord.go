// Package coord implements the paper's management framework (Figure 4):
// each user deploys an executor, an agent, and a predictor; agents sample
// epochs, build utility profiles, and send them to a coordinator; the
// coordinator runs Algorithm 1 over the population and assigns each class
// a tailored equilibrium threshold. Communication is infrequent and
// coarse-grained — an equilibrium is self-enforcing, so agents only hear
// from the coordinator when system profiles change (§2.3).
//
// The package offers both an in-process API (Coordinator) and a TCP/JSON
// line protocol (Server/Client) for the distributed deployment sketched
// in the paper.
package coord

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"sprintgame/internal/core"
	"sprintgame/internal/dist"
	"sprintgame/internal/telemetry"
)

// Profile is an agent's report: the utility histogram it observed while
// sampling epochs (the paper's offline profiling).
type Profile struct {
	// Agent uniquely identifies the reporting agent.
	Agent string `json:"agent"`
	// Class is the agent's application type; agents of one class share a
	// strategy.
	Class string `json:"class"`
	// Values are utility bin centers and Weights their observed
	// frequencies.
	Values  []float64 `json:"values"`
	Weights []float64 `json:"weights"`
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if p.Agent == "" || p.Class == "" {
		return errors.New("coord: profile needs agent and class identifiers")
	}
	if len(p.Values) == 0 || len(p.Values) != len(p.Weights) {
		return fmt.Errorf("coord: profile has %d values and %d weights",
			len(p.Values), len(p.Weights))
	}
	if _, err := dist.NewDiscrete(p.Values, p.Weights); err != nil {
		return fmt.Errorf("coord: invalid profile density: %w", err)
	}
	return nil
}

// Strategy is the coordinator's assignment to one class (§2.3): the
// equilibrium threshold plus the population statistics that justify it.
type Strategy struct {
	Class      string  `json:"class"`
	Threshold  float64 `json:"threshold"`
	SprintProb float64 `json:"sprint_prob"`
	Ptrip      float64 `json:"ptrip"`
	// Agents is the number of agents of this class the coordinator
	// counted when solving the game.
	Agents int `json:"agents"`
}

// Coordinator collects profiles and computes equilibrium strategies. It
// is safe for concurrent use.
type Coordinator struct {
	cfg core.Config

	mu sync.Mutex
	// cache, when non-nil, routes the one solve per pooled version
	// through a shared core.SolveCache, so coordinators (or profile sets
	// that return to an earlier mix) reuse each other's equilibria.
	cache    *core.SolveCache
	profiles map[string]Profile // by agent id
	// pooled memoizes the per-class pooled densities and their
	// equilibrium between profile changes: the answer only changes when
	// a Submit lands (§2.3), so a fetch in between neither re-pools nor
	// re-solves. Nil means dirty.
	pooled *pooledClasses
}

// pooledClasses is the memoized result of pooling all profiles, plus
// the equilibrium solved for them once the first fetch needs it.
type pooledClasses struct {
	classes []core.AgentClass
	n       int // population (sum of class counts)
	agents  int // reporting agents
	// eq is the converged equilibrium of classes; nil until solved.
	// An unconverged solve is never stored: each fetch re-solves and
	// refuses it.
	eq *core.Equilibrium
}

// NewCoordinator returns a coordinator with the given game parameters.
// cfg.N is ignored: the rack population is the set of registered agents.
func NewCoordinator(cfg core.Config) (*Coordinator, error) {
	probe := cfg
	probe.N = 1
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	return &Coordinator{cfg: cfg, profiles: make(map[string]Profile)}, nil
}

// UseCache attaches a solve cache: the coordinator's one solve per
// pooled version goes through it, so a workload mix it has already
// solved (here or in another coordinator sharing the cache) is not
// solved again. A nil cache restores direct solving.
func (c *Coordinator) UseCache(cache *core.SolveCache) {
	c.mu.Lock()
	c.cache = cache
	c.mu.Unlock()
}

// Submit registers or replaces an agent's profile.
func (c *Coordinator) Submit(p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.profiles[p.Agent] = p
	c.pooled = nil // pooled densities are stale
	return nil
}

// poolBins bounds the pooled class density's support size so the game's
// dynamic program stays fast regardless of how many agents report.
const poolBins = 250

// poolAtoms merges many per-agent profile atoms into one bounded-size
// class density by re-histogramming.
func poolAtoms(values, weights []float64) (*dist.Discrete, error) {
	raw, err := dist.NewDiscrete(values, weights)
	if err != nil {
		return nil, err
	}
	if raw.Len() <= poolBins {
		return raw, nil
	}
	lo, hi := raw.Support()
	h, err := dist.NewHistogram(lo, hi+1e-9, poolBins)
	if err != nil {
		return nil, err
	}
	for i := 0; i < raw.Len(); i++ {
		x, p := raw.Atom(i)
		h.AddWeighted(x, p)
	}
	return h.Discrete()
}

// ComputeStrategies merges profiles per class, runs Algorithm 1, and
// returns each class's assigned strategy. A solve that does not
// converge within the config's MaxFixedPointIter is an error, counted
// as coord.unconverged.
func (c *Coordinator) ComputeStrategies() (map[string]Strategy, *core.Equilibrium, error) {
	return c.ComputeStrategiesSpanned(nil)
}

// ComputeStrategiesSpanned is ComputeStrategies with span tracing: the
// profile pooling, the solve-cache lookup, and any actual equilibrium
// solve are recorded as children of the given parent span (the
// coordinator server passes its per-request dispatch span). A nil span
// disables tracing.
//
// Between Submits a call reuses the memoized equilibrium: no solve, no
// cache lookup, no SolveKey. The first call after a Submit pools and
// solves once while holding the coordinator's lock, so concurrent
// callers wait for that one solve instead of repeating it. The solve
// (or a cache wait on another coordinator's identical solve) never
// calls back into this coordinator, so holding c.mu across it cannot
// deadlock.
func (c *Coordinator) ComputeStrategiesSpanned(span *telemetry.Span) (map[string]Strategy, *core.Equilibrium, error) {
	pool := span.Child("coord.pool")
	c.mu.Lock()
	pc := c.pooled
	memoized := pc != nil
	if !memoized {
		var err error
		if pc, err = c.poolLocked(); err != nil {
			c.mu.Unlock()
			pool.EndWith(telemetry.Fields{"error": err.Error()})
			return nil, nil, err
		}
		c.pooled = pc
	}
	pool.EndWith(telemetry.Fields{
		"classes": len(pc.classes), "agents": pc.agents, "memoized": memoized})
	eq := pc.eq
	if eq == nil {
		cfg := c.cfg
		cfg.N = pc.n
		var err error
		if eq, err = c.cache.FindEquilibriumSpanned(pc.classes, cfg, span); err != nil {
			c.mu.Unlock()
			return nil, nil, err
		}
		if eq.Converged {
			pc.eq = eq
		}
	}
	c.mu.Unlock()

	if !eq.Converged {
		// A solve capped at MaxFixedPointIter is not an equilibrium
		// Algorithm 1 would accept; never hand it out as one.
		c.cfg.Metrics.Counter("coord.unconverged").Inc()
		return nil, nil, fmt.Errorf("coord: equilibrium did not converge in %d iterations", eq.Iterations)
	}
	out := make(map[string]Strategy, len(eq.Classes))
	for _, cl := range eq.Classes {
		n := 0
		for _, ac := range pc.classes {
			if ac.Name == cl.Name {
				n = ac.Count
			}
		}
		out[cl.Name] = Strategy{
			Class:      cl.Name,
			Threshold:  cl.Threshold,
			SprintProb: cl.SprintProb,
			Ptrip:      eq.Ptrip,
			Agents:     n,
		}
	}
	return out, eq, nil
}

// poolLocked merges all registered profiles into per-class pooled
// densities. Caller holds c.mu; the result is memoized until the next
// Submit. Holding the lock through pooling serializes concurrent first
// requests after a profile change, so the pooling work happens once,
// not once per waiter.
func (c *Coordinator) poolLocked() (*pooledClasses, error) {
	type classAgg struct {
		count   int
		values  []float64
		weights []float64
	}
	agg := make(map[string]*classAgg)
	// Pool profiles in sorted agent order: floating-point pooling is
	// order-sensitive, and a canonical order keeps the pooled densities
	// (and therefore the equilibrium) independent of submit order.
	agents := make([]string, 0, len(c.profiles))
	for id := range c.profiles {
		agents = append(agents, id)
	}
	sort.Strings(agents)
	for _, id := range agents {
		p := c.profiles[id]
		a := agg[p.Class]
		if a == nil {
			a = &classAgg{}
			agg[p.Class] = a
		}
		a.count++
		// Pool observations: per-agent weights are normalized before
		// pooling so large profiles don't dominate their class.
		d, err := dist.NewDiscrete(p.Values, p.Weights)
		if err != nil {
			return nil, err
		}
		a.values = append(a.values, d.Values()...)
		a.weights = append(a.weights, d.Probs()...)
	}
	if len(agg) == 0 {
		return nil, errors.New("coord: no profiles registered")
	}
	names := make([]string, 0, len(agg))
	for name := range agg {
		names = append(names, name)
	}
	sort.Strings(names)

	pc := &pooledClasses{agents: len(agents)}
	for _, name := range names {
		a := agg[name]
		d, err := poolAtoms(a.values, a.weights)
		if err != nil {
			return nil, fmt.Errorf("coord: pooling class %q: %w", name, err)
		}
		pc.classes = append(pc.classes, core.AgentClass{Name: name, Count: a.count, Density: d})
		pc.n += a.count
	}
	return pc, nil
}
