package experiments

import (
	"fmt"

	"sprintgame/internal/core"
	"sprintgame/internal/dist"
	"sprintgame/internal/workload"
)

// Figure10 reproduces the utility-density kernel plots for Linear
// Regression and PageRank: KDE curves over profiled per-epoch speedups.
func Figure10(opts Options) (*Report, error) {
	epochs := 30000
	if opts.Quick {
		epochs = 5000
	}
	r := &Report{
		ID:     "fig10",
		Title:  "Kernel densities of sprinting speedups (Figure 10)",
		Header: []string{"benchmark", "normalized TPS", "density"},
	}
	for _, name := range []string{"linear", "pagerank"} {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		g, err := workload.NewTraceGenerator(b, opts.Seed+10)
		if err != nil {
			return nil, err
		}
		kde, err := dist.NewKDE(g.SampleDensity(epochs), 0)
		if err != nil {
			return nil, err
		}
		xs, ys := kde.Curve(17)
		for i := range xs {
			r.Rows = append(r.Rows, []string{name, f2(xs[i]), f3(ys[i])})
		}
	}
	r.Notes = append(r.Notes,
		"linear: narrow band 3-5x; pagerank: bimodal with gains above 10x (as in the paper)")
	return r, nil
}

// Figure11 reproduces the probability of sprinting per benchmark: the
// equilibrium's long-run fraction of epochs spent sprinting (ps * pA).
func Figure11(opts Options) (*Report, error) {
	cfg := core.DefaultConfig()
	r := &Report{
		ID:     "fig11",
		Title:  "Probability of sprinting per benchmark (Figure 11)",
		Header: []string{"benchmark", "threshold uT", "ps (Eq. 9)", "pA", "sprint share", "Ptrip"},
	}
	for _, b := range workload.Catalog() {
		f, err := b.DiscreteDensity(250)
		if err != nil {
			return nil, err
		}
		eq, err := opts.singleClass(b.Name, f, cfg)
		if err != nil {
			return nil, fmt.Errorf("fig11 %s: %w", b.Name, err)
		}
		o := eq.Classes[0]
		r.Rows = append(r.Rows, []string{
			b.Name, f2(o.Threshold), f3(o.SprintProb), f3(o.ActiveFrac),
			f3(o.SprintTimeShare()), f3(eq.Ptrip),
		})
	}
	r.Notes = append(r.Notes,
		"linear and correlation sprint at every opportunity (ps=1); the rest sprint judiciously")
	return r, nil
}

// Figure12 reproduces the efficiency-of-equilibrium curve: E-T rate over
// C-T rate as recovery persistence pr grows.
func Figure12(opts Options) (*Report, error) {
	cfg := core.DefaultConfig()
	b, err := workload.ByName("decision")
	if err != nil {
		return nil, err
	}
	f, err := b.DiscreteDensity(250)
	if err != nil {
		return nil, err
	}
	prs := []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.9, 0.94, 0.97, 0.99}
	if opts.Quick {
		prs = []float64{0.1, 0.5, 0.88, 0.99}
	}
	pts, err := core.EfficiencyCurve(f, cfg, prs)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "fig12",
		Title:  "Efficiency of equilibrium thresholds vs recovery cost (Figure 12)",
		Header: []string{"pr", "efficiency (E-T/C-T)"},
	}
	for _, p := range pts {
		r.Rows = append(r.Rows, []string{f2(p.Param), f3(p.Threshold)})
	}
	r.Notes = append(r.Notes,
		"efficiency decays as recovery becomes ruinous; pr -> 1 is the Prisoner's Dilemma (§6.4)")
	return r, nil
}

// Figure13 reproduces the sensitivity of the equilibrium threshold to
// pc, pr, Nmin, and Nmax.
func Figure13(opts Options) (*Report, error) {
	cfg := core.DefaultConfig()
	b, err := workload.ByName("decision")
	if err != nil {
		return nil, err
	}
	f, err := b.DiscreteDensity(250)
	if err != nil {
		return nil, err
	}
	grid := func(vals []float64) []float64 {
		if !opts.Quick {
			return vals
		}
		return []float64{vals[0], vals[len(vals)/2], vals[len(vals)-1]}
	}
	panels := []struct {
		name  string
		vals  []float64
		sweep func(*dist.Discrete, core.Config, []float64) ([]core.SensitivityPoint, error)
	}{
		{"pc", grid([]float64{0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95}), core.SweepPc},
		{"pr", grid([]float64{0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95}), core.SweepPr},
		{"Nmin", grid([]float64{50, 150, 250, 350, 450, 550, 650}), core.SweepNMin},
		{"Nmax", grid([]float64{400, 500, 600, 700, 800, 900}), core.SweepNMax},
	}
	r := &Report{
		ID:     "fig13",
		Title:  "Sensitivity of sprinting threshold to architecture parameters (Figure 13)",
		Header: []string{"parameter", "value", "threshold uT", "Ptrip", "sprinters"},
	}
	for _, p := range panels {
		pts, err := p.sweep(f, cfg, p.vals)
		if err != nil {
			return nil, fmt.Errorf("fig13 %s: %w", p.name, err)
		}
		for _, pt := range pts {
			r.Rows = append(r.Rows, []string{
				p.name, fmt.Sprintf("%.3g", pt.Param), f2(pt.Threshold),
				f3(pt.Ptrip), f0(pt.Sprinters),
			})
		}
	}
	r.Notes = append(r.Notes,
		"thresholds rise with cooling duration (pc), are insensitive to pr, and fall with small Nmin/Nmax (§6.5)")
	return r, nil
}
