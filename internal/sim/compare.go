package sim

import (
	"errors"
	"fmt"

	"sprintgame/internal/core"
	"sprintgame/internal/dist"
	"sprintgame/internal/policy"
)

// DensityBins is the discretization used when profiling benchmarks for
// the coordinator's offline analysis.
const DensityBins = 250

// gameClasses converts simulation groups into game agent classes using
// each benchmark's analytic density — the profile agents would report to
// the coordinator.
func gameClasses(cfg Config) ([]core.AgentClass, error) {
	classes := make([]core.AgentClass, 0, len(cfg.Groups))
	for _, g := range cfg.Groups {
		var d *dist.Discrete
		var err error
		if g.TraceSet != nil {
			d, err = g.TraceSet.Density(DensityBins)
		} else if g.Bench != nil {
			d, err = g.Bench.DiscreteDensity(DensityBins)
		} else {
			err = fmt.Errorf("group has neither benchmark nor traces")
		}
		if err != nil {
			return nil, fmt.Errorf("sim: density for %q: %w", g.Class, err)
		}
		classes = append(classes, core.AgentClass{Name: g.Class, Count: g.Count, Density: d})
	}
	return classes, nil
}

// BuildEquilibriumPolicy runs Algorithm 1 for the configuration's groups
// and returns the E-T policy along with the equilibrium itself.
func BuildEquilibriumPolicy(cfg Config) (*policy.Threshold, *core.Equilibrium, error) {
	return BuildEquilibriumPolicyCached(cfg, nil)
}

// BuildEquilibriumPolicyCached is BuildEquilibriumPolicy through a
// solve cache: identical (groups, game) instances reuse one memoized
// equilibrium, and concurrent builds of the same instance coalesce into
// a single solve. A nil cache solves directly.
func BuildEquilibriumPolicyCached(cfg Config, cache *core.SolveCache) (*policy.Threshold, *core.Equilibrium, error) {
	classes, err := gameClasses(cfg)
	if err != nil {
		return nil, nil, err
	}
	eq, err := cache.FindEquilibrium(classes, cfg.Game)
	if err != nil {
		return nil, nil, err
	}
	byClass := make(map[string]float64, len(eq.Classes))
	for _, c := range eq.Classes {
		byClass[c.Name] = c.Threshold
	}
	pol, err := policy.NewThreshold("equilibrium-threshold", byClass)
	if err != nil {
		return nil, nil, err
	}
	return pol, eq, nil
}

// BuildCooperativePolicy exhaustively searches for the globally optimal
// shared threshold. Like the paper, it supports only homogeneous racks:
// searching joint thresholds for multiple classes is computationally hard
// (§6.2), so configurations with more than one group are rejected.
func BuildCooperativePolicy(cfg Config) (*policy.Threshold, *core.CooperativeResult, error) {
	if len(cfg.Groups) != 1 {
		return nil, nil, errors.New("sim: cooperative search supports a single application type")
	}
	classes, err := gameClasses(cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.CooperativeThreshold(classes[0].Density, cfg.Game)
	if err != nil {
		return nil, nil, err
	}
	pol, err := policy.NewThreshold("cooperative-threshold",
		map[string]float64{classes[0].Name: res.Best.Threshold})
	if err != nil {
		return nil, nil, err
	}
	return pol, &res, nil
}

// Comparison is a Figure 8 row: task rates for each policy on one
// workload configuration, normalized to Greedy.
type Comparison struct {
	Greedy      *Result
	Backoff     *Result
	Equilibrium *Result
	Cooperative *Result // nil for heterogeneous racks
}

// Normalized returns (E-B, E-T, C-T) task rates divided by Greedy's.
// C-T is 0 when absent.
func (c *Comparison) Normalized() (eb, et, ct float64) {
	g := c.Greedy.TaskRate
	if g <= 0 {
		return 0, 0, 0
	}
	eb = c.Backoff.TaskRate / g
	et = c.Equilibrium.TaskRate / g
	if c.Cooperative != nil {
		ct = c.Cooperative.TaskRate / g
	}
	return
}

// ComparePolicies runs all four policies (or three, for heterogeneous
// racks) on the same configuration with distinct deterministic seeds.
func ComparePolicies(cfg Config) (*Comparison, error) {
	out := &Comparison{}
	var err error
	if out.Greedy, err = Run(cfg, policy.NewGreedy(cfg.Seed+1)); err != nil {
		return nil, fmt.Errorf("sim: greedy: %w", err)
	}
	if out.Backoff, err = Run(cfg, policy.NewExponentialBackoff(cfg.Seed+2)); err != nil {
		return nil, fmt.Errorf("sim: backoff: %w", err)
	}
	etPol, _, err := BuildEquilibriumPolicy(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: equilibrium: %w", err)
	}
	if out.Equilibrium, err = Run(cfg, etPol); err != nil {
		return nil, fmt.Errorf("sim: equilibrium run: %w", err)
	}
	if len(cfg.Groups) == 1 {
		ctPol, _, err := BuildCooperativePolicy(cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: cooperative: %w", err)
		}
		if out.Cooperative, err = Run(cfg, ctPol); err != nil {
			return nil, fmt.Errorf("sim: cooperative run: %w", err)
		}
	}
	return out, nil
}
