package experiments

import (
	"fmt"

	"sprintgame/internal/core"
	"sprintgame/internal/policy"
	"sprintgame/internal/sim"
	"sprintgame/internal/workload"
)

// Extensions beyond the paper's figures: the §6.4 equilibrium-deviation
// and Folk-theorem enforcement experiments, made concrete in simulation.

// deviantIDs returns the first k agent ids.
func deviantIDs(k int) []int {
	ids := make([]int, k)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// trackedStats averages the tracked agents' rates and sprint counts.
func trackedStats(res *sim.Result, ids []int) (rate float64, sprints float64) {
	for _, id := range ids {
		rate += res.AgentRates[id]
		sprints += float64(res.AgentSprints[id])
	}
	n := float64(len(ids))
	return rate / n, sprints / n
}

// ExtDeviation tests the equilibrium's self-enforcement (§2.3, §4.4): in
// a population playing E-T thresholds, a small group deviating to greedy
// or to an overly conservative threshold should not beat conforming play.
func ExtDeviation(opts Options) (*Report, error) {
	epochs, game := simScale(opts)
	cfg, err := singleAppConfig("decision", epochs, game, opts.Seed+64, false)
	if err != nil {
		return nil, err
	}
	k := game.N / 100 // a 1% minority
	if k < 1 {
		k = 1
	}
	cfg.TrackAgents = deviantIDs(k)

	etPol, eq, err := opts.equilibriumPolicy(cfg)
	if err != nil {
		return nil, err
	}
	o := eq.Classes[0]

	conservative, err := policy.NewThreshold("conservative", map[string]float64{
		"decision": o.Threshold * 1.6,
	})
	if err != nil {
		return nil, err
	}
	aggressive, err := policy.NewThreshold("aggressive", map[string]float64{
		"decision": o.Threshold * 0.4,
	})
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:     "ext-deviation",
		Title:  "Equilibrium self-enforcement: do deviants gain? (§4.4)",
		Header: []string{"deviant strategy", "deviant rate", "conforming rate", "gain", "deviant sprints/epoch"},
	}
	// Baseline: everyone conforms; the tracked agents' rate is the
	// conforming reference.
	base, err := sim.Run(cfg, etPol)
	if err != nil {
		return nil, err
	}
	confRate, confSprints := trackedStats(base, cfg.TrackAgents)
	r.Rows = append(r.Rows, []string{
		"conform (baseline)", f3(confRate), f3(confRate), "1.000",
		f3(confSprints / float64(epochs)),
	})

	worstGain := 0.0
	for _, dev := range []policy.Policy{policy.NewGreedy(opts.Seed), aggressive, conservative} {
		over, err := policy.NewOverride(etPol, dev, cfg.TrackAgents...)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(cfg, over)
		if err != nil {
			return nil, err
		}
		devRate, devSprints := trackedStats(res, cfg.TrackAgents)
		gain := devRate / confRate
		if gain > worstGain {
			worstGain = gain
		}
		r.Rows = append(r.Rows, []string{
			dev.Name(), f3(devRate), f3(confRate), f3(gain),
			f3(devSprints / float64(epochs)),
		})
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"largest deviation gain = %.3f; values near or below 1 confirm the equilibrium is self-enforcing", worstGain))
	return r, nil
}

// ExtFolk reproduces the §6.4 Folk-theorem discussion: with ruinously
// expensive recovery (pr near 1) the cooperative threshold is not an
// equilibrium — a deviant playing her best response gains — but the
// coordinator's monitor-and-ban enforcement makes deviation unprofitable.
func ExtFolk(opts Options) (*Report, error) {
	epochs, game := simScale(opts)
	if epochs < 600 {
		// Deviation detection needs enough epochs for counts to separate
		// from the binomial noise of obedient play.
		epochs = 600
	}
	game.Pr = 0.995 // recovery is effectively ruinous
	b, err := workload.ByName("decision")
	if err != nil {
		return nil, err
	}
	f, err := b.DiscreteDensity(250)
	if err != nil {
		return nil, err
	}
	coop, err := core.CooperativeThreshold(f, game)
	if err != nil {
		return nil, err
	}
	ctPol, err := policy.NewThreshold("cooperative-threshold", map[string]float64{
		"decision": coop.Best.Threshold,
	})
	if err != nil {
		return nil, err
	}

	cfg, err := singleAppConfig("decision", epochs, game, opts.Seed+65, false)
	if err != nil {
		return nil, err
	}
	k := game.N / 100
	if k < 1 {
		k = 1
	}
	cfg.TrackAgents = deviantIDs(k)

	r := &Report{
		ID:     "ext-folk",
		Title:  "Folk theorem enforcement under ruinous recovery (§6.4)",
		Header: []string{"scenario", "deviant rate", "population rate", "banned", "trips"},
	}

	// (a) Everyone cooperates: the breaker never trips and everyone
	// enjoys the cooperative rate.
	base, err := sim.Run(cfg, ctPol)
	if err != nil {
		return nil, err
	}
	coopRate, _ := trackedStats(base, cfg.TrackAgents)
	r.Rows = append(r.Rows, []string{
		"all cooperate (C-T)", f3(coopRate), f3(base.TaskRate), "0",
		fmt.Sprint(base.Trips),
	})

	// (b) A 1% minority deviates to unrestricted sprinting (the §6.4
	// best response to a no-trip world: "lowering her threshold and
	// sprinting more often"), with no enforcement. Too few to trip the
	// breaker, they free-ride and gain.
	over, err := policy.NewOverride(ctPol, policy.NewGreedy(opts.Seed), cfg.TrackAgents...)
	if err != nil {
		return nil, err
	}
	unpunished, err := sim.Run(cfg, over)
	if err != nil {
		return nil, err
	}
	devRate, _ := trackedStats(unpunished, cfg.TrackAgents)
	r.Rows = append(r.Rows, []string{
		"1% deviate, no punishment", f3(devRate), f3(unpunished.TaskRate), "0",
		fmt.Sprint(unpunished.Trips),
	})

	// (c) The same deviants under the coordinator's monitor-and-ban
	// enforcement: deviation is detected and deviators are forbidden
	// from sprinting again, so deviation no longer pays.
	expected := core.SprintProbability(f, coop.Best.Threshold)
	expectedShare := expected * core.ActiveFraction(expected, game.Pc)
	warmup := epochs / 10
	if warmup < 10 {
		warmup = 10
	}
	over2, err := policy.NewOverride(ctPol, policy.NewGreedy(opts.Seed), cfg.TrackAgents...)
	if err != nil {
		return nil, err
	}
	mon, err := policy.NewMonitor(over2, expectedShare, 4.5, warmup)
	if err != nil {
		return nil, err
	}
	punished, err := sim.Run(cfg, mon)
	if err != nil {
		return nil, err
	}
	punRate, _ := trackedStats(punished, cfg.TrackAgents)
	r.Rows = append(r.Rows, []string{
		"1% deviate, monitor+ban", f3(punRate), f3(punished.TaskRate),
		fmt.Sprint(mon.BannedCount()), fmt.Sprint(punished.Trips),
	})

	// (d) The unraveling the Folk theorem prevents: if everyone responds
	// by deviating too, the breaker trips and ruinous recovery destroys
	// throughput — the Prisoner's Dilemma outcome.
	cascade, err := sim.Run(cfg, policy.NewGreedy(opts.Seed+3))
	if err != nil {
		return nil, err
	}
	cascadeRate, _ := trackedStats(cascade, cfg.TrackAgents)
	r.Rows = append(r.Rows, []string{
		"all deviate (PD outcome)", f3(cascadeRate), f3(cascade.TaskRate), "0",
		fmt.Sprint(cascade.Trips),
	})

	r.Notes = append(r.Notes,
		fmt.Sprintf("unpunished deviation pays %+.1f%% over cooperation; with enforcement it pays %+.1f%%",
			100*(devRate/coopRate-1), 100*(punRate/coopRate-1)),
		fmt.Sprintf("if everyone deviates, population rate collapses to %.2f (cooperation: %.2f)",
			cascade.TaskRate, base.TaskRate),
		"the threat of punishment sustains the cooperative (non-equilibrium) strategy, as §6.4 argues")
	return r, nil
}

// ExtCoopMulti computes the heterogeneous-rack cooperative upper bound
// the paper omits for tractability (§6.2: "searching for optimal
// thresholds for multiple types of agents is computationally hard"),
// using coordinate descent, and reports the equilibrium's efficiency on
// mixed racks — Figure 9's missing C-T column, analytically.
func ExtCoopMulti(opts Options) (*Report, error) {
	cfg := core.DefaultConfig()
	mixes := []map[string]int{
		{"decision": 1000},
		{"decision": 500, "pagerank": 500},
		{"decision": 400, "pagerank": 300, "svm": 300},
		{"decision": 300, "pagerank": 300, "svm": 200, "linear": 200},
	}
	r := &Report{
		ID:     "ext-coopmulti",
		Title:  "Heterogeneous cooperative upper bound via coordinate descent (Figure 9's missing C-T)",
		Header: []string{"mix", "E-T rate", "C-T rate (approx)", "efficiency", "C-T sprinters"},
	}
	// The mixes are independent game instances; solve them as one batch.
	labels := make([]string, 0, len(mixes))
	reqs := make([]core.SolveRequest, 0, len(mixes))
	for _, mix := range mixes {
		names := make([]string, 0, len(mix))
		for _, n := range workload.Names() {
			if _, ok := mix[n]; ok {
				names = append(names, n)
			}
		}
		classes := make([]core.AgentClass, 0, len(mix))
		label := ""
		total := 0
		for _, n := range names {
			b, err := workload.ByName(n)
			if err != nil {
				return nil, err
			}
			d, err := b.DiscreteDensity(250)
			if err != nil {
				return nil, err
			}
			classes = append(classes, core.AgentClass{Name: n, Count: mix[n], Density: d})
			if label != "" {
				label += "+"
			}
			label += n
			total += mix[n]
		}
		mcfg := cfg
		mcfg.N = total
		labels = append(labels, label)
		reqs = append(reqs, core.SolveRequest{Classes: classes, Cfg: mcfg})
	}
	for i, res := range core.SolveBatch(reqs) {
		if res.Err != nil {
			return nil, res.Err
		}
		eq, classes, mcfg := res.Eq, reqs[i].Classes, reqs[i].Cfg
		eqThs := make([]float64, len(classes))
		for j, c := range classes {
			o, err := eq.Outcome(c.Name)
			if err != nil {
				return nil, err
			}
			eqThs[j] = o.Threshold
		}
		eqRate, err := core.EvaluateThresholds(classes, eqThs, mcfg)
		if err != nil {
			return nil, err
		}
		_, coop, err := core.CooperativeThresholdMulti(classes, mcfg)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{
			labels[i], f3(eqRate.Rate), f3(coop.Rate),
			f3(eqRate.Rate / coop.Rate), f0(coop.Sprinters),
		})
	}
	r.Notes = append(r.Notes,
		"equilibrium efficiency on mixed racks mirrors the single-type result: high unless flat-profile classes are present")
	return r, nil
}
