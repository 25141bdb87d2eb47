package experiments

import (
	"sprintgame/internal/core"
	"sprintgame/internal/dist"
	"sprintgame/internal/policy"
	"sprintgame/internal/sim"
)

// singleClass is core.SingleClass routed through Options.Cache: the many
// experiments that solve the same (density, game) instance — every
// figure starts from the Table 2 configuration — share one solution
// instead of each running Algorithm 1.
func (o Options) singleClass(name string, density *dist.Discrete, cfg core.Config) (*core.Equilibrium, error) {
	return o.Cache.FindEquilibrium(
		[]core.AgentClass{{Name: name, Count: cfg.N, Density: density}}, cfg)
}

// equilibriumPolicy is sim.BuildEquilibriumPolicy through Options.Cache.
func (o Options) equilibriumPolicy(cfg sim.Config) (*policy.Threshold, *core.Equilibrium, error) {
	return sim.BuildEquilibriumPolicyCached(cfg, o.Cache)
}
