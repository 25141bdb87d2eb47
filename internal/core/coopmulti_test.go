package core

import (
	"testing"
)

func multiClasses(t *testing.T, counts map[string]int) []AgentClass {
	t.Helper()
	out := make([]AgentClass, 0, len(counts))
	for _, name := range []string{"decision", "pagerank", "linear"} {
		c, ok := counts[name]
		if !ok {
			continue
		}
		out = append(out, AgentClass{Name: name, Count: c, Density: density(t, name)})
	}
	return out
}

func TestEvaluateThresholdsValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := EvaluateThresholds(nil, nil, cfg); err == nil {
		t.Error("no classes should error")
	}
	classes := multiClasses(t, map[string]int{"decision": 1000})
	if _, err := EvaluateThresholds(classes, []float64{1, 2}, cfg); err == nil {
		t.Error("threshold count mismatch should error")
	}
	short := multiClasses(t, map[string]int{"decision": 500})
	if _, err := EvaluateThresholds(short, []float64{1}, cfg); err == nil {
		t.Error("count/N mismatch should error")
	}
}

func TestEvaluateThresholdsMatchesSingleClass(t *testing.T) {
	// A one-class rack must agree with EvaluateThreshold exactly.
	cfg := testConfig()
	classes := multiClasses(t, map[string]int{"decision": 1000})
	for _, th := range []float64{2, 3.5, 5} {
		multi, err := EvaluateThresholds(classes, []float64{th}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		single, err := EvaluateThreshold(classes[0].Density, th, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Both run the same rate model, so the class rate and Ptrip are
		// bit-identical; Rate is rate·count/N, which need not round back.
		if multi.ClassRates[0] != single.Rate {
			t.Errorf("th=%v: class rate %v vs single %v", th, multi.ClassRates[0], single.Rate)
		}
		if !almost(multi.Rate, single.Rate, 1e-9) {
			t.Errorf("th=%v: multi %v vs single %v", th, multi.Rate, single.Rate)
		}
		if multi.Ptrip != single.Ptrip {
			t.Errorf("th=%v: Ptrip %v vs %v", th, multi.Ptrip, single.Ptrip)
		}
	}
}

func TestCooperativeThresholdMultiBeatsEquilibrium(t *testing.T) {
	// The cooperative upper bound must (weakly) dominate the equilibrium
	// assignment under the same analytic model.
	cfg := testConfig()
	cfg.N = 1000
	classes := multiClasses(t, map[string]int{"decision": 400, "pagerank": 300, "linear": 300})
	eq, err := FindEquilibrium(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eqThs := make([]float64, len(classes))
	for i, c := range classes {
		o, err := eq.Outcome(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		eqThs[i] = o.Threshold
	}
	eqRate, err := EvaluateThresholds(classes, eqThs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coopThs, coop, err := CooperativeThresholdMulti(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(coopThs) != len(classes) {
		t.Fatalf("got %d thresholds", len(coopThs))
	}
	if coop.Rate < eqRate.Rate-1e-9 {
		t.Errorf("cooperative rate %v below equilibrium rate %v", coop.Rate, eqRate.Rate)
	}
	// The cooperative solution keeps the rack near or below Nmin.
	nmin, _ := cfg.Trip.Bounds()
	if coop.Sprinters > nmin*1.05 {
		t.Errorf("cooperative sprinters %v well above Nmin %v", coop.Sprinters, nmin)
	}
	// Efficiency of the heterogeneous equilibrium is substantial but
	// below 1 (the linear class drags it down).
	eff := eqRate.Rate / coop.Rate
	if eff < 0.5 || eff > 1.001 {
		t.Errorf("heterogeneous efficiency %v", eff)
	}
}

func TestCooperativeThresholdMultiSingleClassAgrees(t *testing.T) {
	// With one class, coordinate descent must match the exhaustive
	// single-class search.
	cfg := testConfig()
	classes := multiClasses(t, map[string]int{"decision": 1000})
	_, multi, err := CooperativeThresholdMulti(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := CooperativeThreshold(classes[0].Density, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(multi.Rate, single.Best.Rate, 1e-6) {
		t.Errorf("multi %v vs single %v", multi.Rate, single.Best.Rate)
	}
}

func TestCooperativeThresholdMultiEmpty(t *testing.T) {
	if _, _, err := CooperativeThresholdMulti(nil, testConfig()); err == nil {
		t.Error("no classes should error")
	}
}
