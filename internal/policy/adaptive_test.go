package policy

import (
	"math"
	"testing"

	"sprintgame/internal/core"
	"sprintgame/internal/dist"
	"sprintgame/internal/workload"
)

func adaptiveFixture(t *testing.T) (core.Config, map[string]*dist.Discrete) {
	t.Helper()
	cfg := core.DefaultConfig()
	b, err := workload.ByName("decision")
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.DiscreteDensity(200)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, map[string]*dist.Discrete{"decision": d}
}

func TestNewAdaptiveThresholdValidation(t *testing.T) {
	cfg, ds := adaptiveFixture(t)
	if _, err := NewAdaptiveThreshold(cfg, nil, 1, 10); err == nil {
		t.Error("no densities should error")
	}
	if _, err := NewAdaptiveThreshold(cfg, ds, 1.5, 10); err == nil {
		t.Error("bad ptrip should error")
	}
	if _, err := NewAdaptiveThreshold(cfg, ds, 1, 0); err == nil {
		t.Error("zero resolve interval should error")
	}
	if _, err := NewAdaptiveThreshold(cfg, map[string]*dist.Discrete{"x": nil}, 1, 10); err == nil {
		t.Error("nil density should error")
	}
	bad := cfg
	bad.Delta = 2
	if _, err := NewAdaptiveThreshold(bad, ds, 1, 10); err == nil {
		t.Error("invalid game config should error")
	}
}

func TestAdaptiveInitialThresholdMatchesPtripOne(t *testing.T) {
	cfg, ds := adaptiveFixture(t)
	a, err := NewAdaptiveThreshold(cfg, ds, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "adaptive-threshold" {
		t.Errorf("name = %q", a.Name())
	}
	want, err := core.SolveBellman(ds["decision"], 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Thresholds()["decision"]; math.Abs(got-want.Threshold) > 1e-9 {
		t.Errorf("initial threshold %v, want %v", got, want.Threshold)
	}
	// Ptrip=1 collapses the threshold to 0: the policy initially sprints
	// on any utility.
	if !a.Decide(Context{Class: "decision", Utility: 0.1}) {
		t.Error("initial policy should sprint on anything")
	}
	if a.Decide(Context{Class: "unknown", Utility: 100}) {
		t.Error("unknown class must never sprint")
	}
}

func TestAdaptiveConvergesToQuietEquilibrium(t *testing.T) {
	// Feed a long trip-free history: the estimate must fall toward 0 and
	// the threshold rise to the Ptrip=0 solution.
	cfg, ds := adaptiveFixture(t)
	a, err := NewAdaptiveThreshold(cfg, ds, 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 3000; epoch++ {
		a.EpochEnd(epoch, 100, false)
	}
	if a.PtripEstimate() > 1e-3 {
		t.Errorf("estimate = %v after 3000 quiet epochs", a.PtripEstimate())
	}
	want, _ := core.SolveBellman(ds["decision"], 0, cfg)
	got := a.Thresholds()["decision"]
	if math.Abs(got-want.Threshold) > 0.01 {
		t.Errorf("threshold %v, want %v", got, want.Threshold)
	}
	a.WakeUp(0, 0) // no-op, must not panic
}

func TestAdaptiveTracksTripFrequency(t *testing.T) {
	cfg, ds := adaptiveFixture(t)
	a, _ := NewAdaptiveThreshold(cfg, ds, 0.5, 50)
	// 10% trip frequency.
	for epoch := 0; epoch < 5000; epoch++ {
		a.EpochEnd(epoch, 100, epoch%10 == 0)
	}
	if est := a.PtripEstimate(); math.Abs(est-0.1) > 0.02 {
		t.Errorf("estimate %v, want ~0.1", est)
	}
}

func TestAdaptiveClassNames(t *testing.T) {
	cfg, _ := adaptiveFixture(t)
	b1, _ := workload.ByName("decision")
	b2, _ := workload.ByName("pagerank")
	d1, _ := b1.DiscreteDensity(100)
	d2, _ := b2.DiscreteDensity(100)
	a, err := NewAdaptiveThreshold(cfg, map[string]*dist.Discrete{
		"pagerank": d2, "decision": d1,
	}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.classes) != 2 || a.classes["decision"] == nil || a.classes["pagerank"] == nil {
		t.Errorf("classes = %v", a.classes)
	}
}
