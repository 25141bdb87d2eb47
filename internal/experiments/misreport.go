package experiments

import (
	"fmt"

	"sprintgame/internal/core"
	"sprintgame/internal/dist"
	"sprintgame/internal/policy"
	"sprintgame/internal/sim"
)

// ExtMisreport tests §2.3's incentive-compatibility claim: "an agent who
// misreports suffers degraded performance as the coordinator assigns her
// a poorly suited strategy based on inaccurate profiles", while having
// "little influence on conditions in a large system".
//
// A small group of agents misreports its profile in both directions —
// understating utility variance (claiming a flat profile) and inflating
// the high mode — receives thresholds tailored to the lie, and then runs
// its true workload with them.
func ExtMisreport(opts Options) (*Report, error) {
	epochs, game := simScale(opts)
	cfg, err := singleAppConfig("decision", epochs, game, opts.Seed+21, false)
	if err != nil {
		return nil, err
	}
	k := game.N / 100
	if k < 1 {
		k = 1
	}
	cfg.TrackAgents = deviantIDs(k)

	truth, err := cfg.Groups[0].Bench.DiscreteDensity(sim.DensityBins)
	if err != nil {
		return nil, err
	}
	eq, err := opts.singleClass("decision", truth, game)
	if err != nil {
		return nil, err
	}
	honest := eq.Classes[0].Threshold

	// Two symmetric lies: the agent claims her gains are half or twice
	// their true size. The understated profile earns a low threshold
	// (near-greedy sprinting on the true workload); the inflated profile
	// earns a threshold so high that most genuinely good epochs are
	// skipped.
	understated := truth.Scale(0.5)
	inflated := truth.Scale(2)

	lieThreshold := func(lie *dist.Discrete) (float64, error) {
		// In a large system one liar barely moves Ptrip (§2.3), so the
		// coordinator's equilibrium Ptrip stands; the liar's tailored
		// threshold is her best response computed on the lie.
		vals, err := core.SolveBellman(lie, eq.Ptrip, game)
		if err != nil {
			return 0, err
		}
		return vals.Threshold, nil
	}
	underTh, err := lieThreshold(understated)
	if err != nil {
		return nil, err
	}
	inflTh, err := lieThreshold(inflated)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:     "ext-misreport",
		Title:  "Incentive compatibility: misreported profiles hurt the liar (§2.3)",
		Header: []string{"reported profile", "assigned uT", "analytic rate", "simulated rate", "analytic loss"},
	}
	etPol, _, err := opts.equilibriumPolicy(cfg)
	if err != nil {
		return nil, err
	}
	base, err := sim.Run(cfg, etPol)
	if err != nil {
		return nil, err
	}
	truthSim, _ := trackedStats(base, cfg.TrackAgents)
	truthAna, err := core.DeviantRate(truth, honest, eq.Ptrip, game)
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, []string{
		"truthful", f2(honest), f3(truthAna), f3(truthSim), "0.0%",
	})
	for _, lie := range []struct {
		name string
		th   float64
	}{
		{"understated (0.5x gains)", underTh},
		{"inflated (2x gains)", inflTh},
	} {
		ana, err := core.DeviantRate(truth, lie.th, eq.Ptrip, game)
		if err != nil {
			return nil, err
		}
		liarPol, err := policy.NewThreshold("liar", map[string]float64{"decision": lie.th})
		if err != nil {
			return nil, err
		}
		over, err := policy.NewOverride(etPol, liarPol, cfg.TrackAgents...)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(cfg, over)
		if err != nil {
			return nil, err
		}
		liarSim, _ := trackedStats(res, cfg.TrackAgents)
		r.Rows = append(r.Rows, []string{
			lie.name, f2(lie.th), f3(ana), f3(liarSim),
			fmt.Sprintf("%.1f%%", 100*(1-ana/truthAna)),
		})
	}
	r.Notes = append(r.Notes,
		"analytically, the truthful threshold maximizes the liar's own rate: both misreports lose",
		"in simulation, phase-correlated traces make the i.i.d. threshold slightly conservative, so mild understatement is within noise of truthful play — one agent barely moves system conditions (§2.3)")
	return r, nil
}
