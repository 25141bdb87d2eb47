package experiments

import (
	"strings"
	"testing"
)

func TestExtDeviationSelfEnforcing(t *testing.T) {
	rep := run(t, "ext-deviation")
	if len(rep.Rows) != 4 {
		t.Fatalf("expected 4 scenarios, got %d", len(rep.Rows))
	}
	// No deviation strategy gains more than a few percent over
	// conforming play (equilibrium property, allowing simulation noise
	// and the phase-correlation slack documented in EXPERIMENTS.md).
	for i, row := range rep.Rows {
		gain := cell(t, rep, i, 3)
		if gain > 1.08 {
			t.Errorf("%s: deviation gain %v exceeds noise band", row[0], gain)
		}
	}
}

func TestExtFolkEnforcement(t *testing.T) {
	rep := run(t, "ext-folk")
	if len(rep.Rows) != 4 {
		t.Fatalf("expected 4 scenarios, got %d", len(rep.Rows))
	}
	coop := cell(t, rep, 0, 1)
	unpunished := cell(t, rep, 1, 1)
	punished := cell(t, rep, 2, 1)
	cascade := cell(t, rep, 3, 2)
	// Deviation pays without enforcement...
	if unpunished <= coop {
		t.Errorf("unpunished deviation (%v) should beat cooperation (%v)", unpunished, coop)
	}
	// ...and does not with the monitor.
	if punished >= unpunished {
		t.Errorf("monitored deviation (%v) should do worse than unpunished (%v)",
			punished, unpunished)
	}
	// The PD outcome destroys throughput.
	if cascade > 0.5*coop {
		t.Errorf("all-deviate rate %v should collapse far below cooperation %v", cascade, coop)
	}
	// The monitor banned at least one deviant and reported it.
	banned := cell(t, rep, 2, 3)
	if banned < 1 {
		t.Error("monitor banned nobody")
	}
}

func TestAblTripModelAgreement(t *testing.T) {
	rep := run(t, "abl-tripmodel")
	for i, row := range rep.Rows {
		l, c := cell(t, rep, i, 1), cell(t, rep, i, 2)
		if diff := l - c; diff > 0.2 || diff < -0.2 {
			t.Errorf("%s: thresholds diverge (%v vs %v)", row[0], l, c)
		}
	}
}

func TestAblDampingAllConverge(t *testing.T) {
	rep := run(t, "abl-damping")
	if len(rep.Rows) != 12 {
		t.Fatalf("expected 12 rows, got %d", len(rep.Rows))
	}
	// Ptrip must agree across damping settings for each benchmark.
	byBench := map[string][]float64{}
	for i, row := range rep.Rows {
		if row[3] != "true" {
			t.Errorf("%s damping=%s did not converge", row[0], row[1])
		}
		byBench[row[0]] = append(byBench[row[0]], cell(t, rep, i, 4))
	}
	for name, ps := range byBench {
		for _, p := range ps {
			if diff := p - ps[0]; diff > 0.01 || diff < -0.01 {
				t.Errorf("%s: equilibrium depends on damping: %v", name, ps)
			}
		}
	}
}

func TestAblBinsStabilizes(t *testing.T) {
	rep := run(t, "abl-bins")
	n := len(rep.Rows)
	// The two finest resolutions agree closely.
	a, b := cell(t, rep, n-2, 1), cell(t, rep, n-1, 1)
	if diff := a - b; diff > 0.05 || diff < -0.05 {
		t.Errorf("thresholds at finest bins differ: %v vs %v", a, b)
	}
}

func TestAblRecoveryRuns(t *testing.T) {
	rep := run(t, "abl-recovery")
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	simRate := cell(t, rep, 0, 1)
	anaRate := cell(t, rep, 0, 2)
	if simRate <= 0 || anaRate <= 0 {
		t.Fatal("non-positive rates")
	}
	// Simulation and analytic model agree within ~20% for E-T.
	if ratio := simRate / anaRate; ratio < 0.8 || ratio > 1.2 {
		t.Errorf("sim/analytic ratio = %v", ratio)
	}
}

func TestAblPredictorAccuracy(t *testing.T) {
	rep := run(t, "abl-predictor")
	for i, row := range rep.Rows {
		agree := cell(t, rep, i, 2)
		if strings.Contains(row[1], "0.9") && agree < 75 {
			t.Errorf("%s %s: agreement %v%% too low for fast EWMA", row[0], row[1], agree)
		}
		if row[0] == "linear" && agree < 99 {
			t.Errorf("flat-profile agreement %v%% should be ~100%%", agree)
		}
	}
}

func TestExtAdaptiveConverges(t *testing.T) {
	rep := run(t, "ext-adaptive")
	target := cell(t, rep, 0, 1)
	learned := cell(t, rep, 0, 2)
	if target <= 0 {
		t.Fatal("degenerate target threshold")
	}
	if gap := (learned - target) / target; gap > 0.1 || gap < -0.1 {
		t.Errorf("learned threshold %v vs coordinator %v (gap %v)", learned, target, gap)
	}
	refRate := cell(t, rep, 1, 1)
	learnedRate := cell(t, rep, 1, 2)
	if learnedRate < 0.85*refRate {
		t.Errorf("learned rate %v far below coordinator rate %v", learnedRate, refRate)
	}
}

func TestExtMisreportAnalyticLosses(t *testing.T) {
	rep := run(t, "ext-misreport")
	if len(rep.Rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rep.Rows))
	}
	truthAna := cell(t, rep, 0, 2)
	for i := 1; i < 3; i++ {
		liarAna := cell(t, rep, i, 2)
		if liarAna >= truthAna {
			t.Errorf("%s: analytic rate %v should fall below truthful %v",
				rep.Rows[i][0], liarAna, truthAna)
		}
	}
}

func TestAblTailsSelectivity(t *testing.T) {
	rep := run(t, "abl-tails")
	if len(rep.Rows) < 3 {
		t.Fatalf("expected several alpha rows")
	}
	// Heaviest tail: judicious; thinnest: greedy.
	first := cell(t, rep, 0, 3)
	last := cell(t, rep, len(rep.Rows)-1, 3)
	if first > 0.6 {
		t.Errorf("heavy-tail sprint probability %v, want judicious", first)
	}
	if last < 0.99 {
		t.Errorf("thin-tail sprint probability %v, want greedy", last)
	}
	// Efficiency is higher for the heavy tail than the thin tail.
	if cell(t, rep, 0, 5) <= cell(t, rep, len(rep.Rows)-1, 5) {
		t.Error("heavy-tail efficiency should exceed thin-tail efficiency")
	}
}

func TestAblDiscountSmallGap(t *testing.T) {
	rep := run(t, "abl-discount")
	for i, row := range rep.Rows {
		gap := cell(t, rep, i, 5)
		if gap > 3 {
			t.Errorf("%s: discounting gap %v%% too large", row[0], gap)
		}
		if gap < -0.5 {
			t.Errorf("%s: Bellman beat the long-run optimum by %v%%?", row[0], gap)
		}
	}
}

func TestAblOnlinePredRetainsThroughput(t *testing.T) {
	rep := run(t, "abl-onlinepred")
	for i, row := range rep.Rows {
		retained := cell(t, rep, i, 3)
		if retained < 85 {
			t.Errorf("%s: EWMA prediction retained only %v%%", row[0], retained)
		}
	}
}

func TestExtCoopMultiEfficiency(t *testing.T) {
	rep := run(t, "ext-coopmulti")
	if len(rep.Rows) < 3 {
		t.Fatalf("expected several mixes")
	}
	for i, row := range rep.Rows {
		eff := cell(t, rep, i, 3)
		if eff <= 0 || eff > 1.001 {
			t.Errorf("%s: efficiency %v out of range", row[0], eff)
		}
		if cell(t, rep, i, 1) > cell(t, rep, i, 2)+1e-9 {
			t.Errorf("%s: E-T rate exceeds the cooperative bound", row[0])
		}
	}
}
