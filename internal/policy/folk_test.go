package policy

import (
	"testing"
)

func TestNewOverrideValidation(t *testing.T) {
	if _, err := NewOverride(nil, NewGreedy(1), 0); err == nil {
		t.Error("nil base should error")
	}
	if _, err := NewOverride(NewGreedy(1), nil, 0); err == nil {
		t.Error("nil special should error")
	}
}

func TestOverrideRouting(t *testing.T) {
	base, err := NewThreshold("base", map[string]float64{"c": 100}) // never sprints
	if err != nil {
		t.Fatal(err)
	}
	over, err := NewOverride(base, NewGreedy(1), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if over.Name() != "base+deviant(greedy)" {
		t.Errorf("name = %q", over.Name())
	}
	// Deviants sprint greedily, others follow the (never-sprint) base.
	if !over.Decide(Context{AgentID: 3, Class: "c", Utility: 1}) {
		t.Error("deviant 3 should sprint")
	}
	if !over.Decide(Context{AgentID: 7, Class: "c", Utility: 1}) {
		t.Error("deviant 7 should sprint")
	}
	if over.Decide(Context{AgentID: 4, Class: "c", Utility: 1}) {
		t.Error("agent 4 should follow the base policy")
	}
	// Hooks forward without panicking.
	over.EpochEnd(1, 10, true)
	over.WakeUp(3, 2)
	over.WakeUp(4, 2)
}

func TestNewMonitorValidation(t *testing.T) {
	g := NewGreedy(1)
	if _, err := NewMonitor(nil, 0.2, 4, 10); err == nil {
		t.Error("nil policy should error")
	}
	if _, err := NewMonitor(g, -0.1, 4, 10); err == nil {
		t.Error("bad share should error")
	}
	if _, err := NewMonitor(g, 0.2, 0, 10); err == nil {
		t.Error("non-positive z should error")
	}
	if _, err := NewMonitor(g, 0.2, 4, 0); err == nil {
		t.Error("zero warmup should error")
	}
}

func TestMonitorBansPersistentDeviator(t *testing.T) {
	// Expected share 0.2, but the agent sprints every epoch: the excess
	// grows linearly and must cross the z-bound.
	mon, err := NewMonitor(NewGreedy(1), 0.2, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	banned := -1
	for epoch := 0; epoch < 2000; epoch++ {
		mon.Decide(Context{AgentID: 5, Epoch: epoch})
		if mon.banned[5] {
			banned = epoch
			break
		}
	}
	if banned < 0 {
		t.Fatal("persistent deviator never banned")
	}
	if mon.BannedCount() != 1 {
		t.Errorf("banned count = %d", mon.BannedCount())
	}
	// Once banned, the agent can never sprint again.
	for epoch := banned + 1; epoch < banned+50; epoch++ {
		if mon.Decide(Context{AgentID: 5, Epoch: epoch}) {
			t.Fatal("banned agent sprinted")
		}
	}
}

func TestMonitorSparesObedientAgents(t *testing.T) {
	// An agent sprinting exactly at the expected share must never be
	// banned: her count sits at the binomial mean, far below the z-bound.
	th, err := NewThreshold("obedient", map[string]float64{"c": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(th, 0.5, 4.5, 20)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 5000; epoch++ {
		// Alternate utilities around the threshold: sprint every other
		// epoch, matching the expected share of 0.5.
		u := 0.0
		if epoch%2 == 0 {
			u = 1.0
		}
		mon.Decide(Context{AgentID: 1, Class: "c", Epoch: epoch, Utility: u})
	}
	if mon.banned[1] {
		t.Error("obedient agent was banned")
	}
	if mon.Name() != "obedient+monitor" {
		t.Errorf("name = %q", mon.Name())
	}
}

func TestMonitorForwardsHooks(t *testing.T) {
	e := NewExponentialBackoff(1)
	mon, err := NewMonitor(e, 0.5, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	// A trip observed through the monitor must reach the inner E-B
	// policy and grow its window.
	mon.EpochEnd(0, 900, true)
	if e.window() != 2 {
		t.Errorf("inner window = %d, trip not forwarded", e.window())
	}
	mon.WakeUp(0, 1)
}
