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

// density checks the profile and returns its normalized utility
// density.
func (p Profile) density() (*dist.Discrete, error) {
	if p.Agent == "" || p.Class == "" {
		return nil, errors.New("coord: profile needs agent and class identifiers")
	}
	if len(p.Values) == 0 || len(p.Values) != len(p.Weights) {
		return nil, fmt.Errorf("coord: profile has %d values and %d weights",
			len(p.Values), len(p.Weights))
	}
	d, err := dist.NewDiscrete(p.Values, p.Weights)
	if err != nil {
		return nil, fmt.Errorf("coord: invalid profile density: %w", err)
	}
	return d, nil
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
	cache *core.SolveCache
	// classOf maps each registered agent to its class.
	classOf map[string]string
	// classes holds each class's agents and pooled density. A class
	// with no agents is deleted.
	classes map[string]*classPool
	// pooled memoizes the per-class pooled densities and their
	// equilibrium between profile changes: the answer only changes when
	// a Submit lands (§2.3), so a fetch in between neither re-pools nor
	// re-solves. Nil means dirty.
	pooled *pooledClasses
}

// classPool is one class's registered agents and, once a fetch has
// needed it, their pooled density.
type classPool struct {
	// densities holds each agent's normalized profile density, built
	// once at Submit.
	densities map[string]*dist.Discrete // by agent id
	// pooled is the class's pooled density, nil while a Submit has
	// changed the class since it was last pooled. A pooled density is
	// immutable, so an unchanged class reuses it across versions.
	pooled *dist.Discrete
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
	return &Coordinator{
		cfg:     cfg,
		classOf: make(map[string]string),
		classes: make(map[string]*classPool),
	}, nil
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

// Submit registers or replaces an agent's profile. Only the agent's
// class, and its old class if it moved, are re-pooled on the next fetch.
func (c *Coordinator) Submit(p Profile) error {
	d, err := p.density()
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.classOf[p.Agent]; ok && old != p.Class {
		cp := c.classes[old]
		delete(cp.densities, p.Agent)
		cp.pooled = nil
		if len(cp.densities) == 0 {
			delete(c.classes, old)
		}
	}
	c.classOf[p.Agent] = p.Class
	cp := c.classes[p.Class]
	if cp == nil {
		cp = &classPool{densities: make(map[string]*dist.Discrete)}
		c.classes[p.Class] = cp
	}
	cp.densities[p.Agent] = d
	cp.pooled = nil
	c.pooled = nil // the pooled version is stale
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
// cache lookup, no SolveKey. The first call after a Submit re-pools the
// classes it changed and solves once while holding the coordinator's
// lock, so concurrent callers wait for that one solve instead of
// repeating it. The solve (or a cache wait on another coordinator's
// identical solve) never calls back into this coordinator, so holding
// c.mu across it cannot deadlock.
func (c *Coordinator) ComputeStrategiesSpanned(span *telemetry.Span) (map[string]Strategy, *core.Equilibrium, error) {
	pool := span.Child("coord.pool")
	c.mu.Lock()
	pc := c.pooled
	memoized := pc != nil
	repooled := 0
	if !memoized {
		var err error
		if pc, repooled, err = c.poolLocked(); err != nil {
			c.mu.Unlock()
			pool.EndWith(telemetry.Fields{"error": err.Error()})
			return nil, nil, err
		}
		c.pooled = pc
	}
	pool.EndWith(telemetry.Fields{
		"classes": len(pc.classes), "agents": pc.agents, "memoized": memoized,
		"repooled": repooled})
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

// poolLocked assembles the per-class pooled densities and reports how
// many classes it re-pooled: only those a Submit changed since they were
// last pooled. Caller holds c.mu; the result is memoized until the next
// Submit. Holding the lock through pooling serializes concurrent first
// requests after a profile change, so the pooling work happens once,
// not once per waiter.
func (c *Coordinator) poolLocked() (*pooledClasses, int, error) {
	if len(c.classes) == 0 {
		return nil, 0, errors.New("coord: no profiles registered")
	}
	names := make([]string, 0, len(c.classes))
	for name := range c.classes {
		names = append(names, name)
	}
	sort.Strings(names)

	pc := &pooledClasses{agents: len(c.classOf)}
	repooled := 0
	for _, name := range names {
		cp := c.classes[name]
		if cp.pooled == nil {
			d, err := cp.pool()
			if err != nil {
				return nil, repooled, fmt.Errorf("coord: pooling class %q: %w", name, err)
			}
			cp.pooled = d
			repooled++
		}
		n := len(cp.densities)
		pc.classes = append(pc.classes, core.AgentClass{Name: name, Count: n, Density: cp.pooled})
		pc.n += n
	}
	return pc, repooled, nil
}

// pool merges the class's agent densities into one. Agents are pooled
// in sorted ID order: floating-point pooling is order-sensitive, and a
// canonical order keeps the pooled density (and therefore the
// equilibrium) independent of submit order. Each agent's density is
// normalized, so large profiles don't dominate their class.
func (cp *classPool) pool() (*dist.Discrete, error) {
	agents := make([]string, 0, len(cp.densities))
	atoms := 0
	for id, d := range cp.densities {
		agents = append(agents, id)
		atoms += d.Len()
	}
	sort.Strings(agents)
	values := make([]float64, 0, atoms)
	weights := make([]float64, 0, atoms)
	for _, id := range agents {
		d := cp.densities[id]
		for i := 0; i < d.Len(); i++ {
			x, p := d.Atom(i)
			values = append(values, x)
			weights = append(weights, p)
		}
	}
	return poolAtoms(values, weights)
}
