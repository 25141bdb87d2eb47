package policy

import (
	"testing"

	"sprintgame/internal/workload"
)

func TestGreedyAlwaysSprints(t *testing.T) {
	g := NewGreedy(1)
	if g.Name() != "greedy" {
		t.Errorf("name = %q", g.Name())
	}
	for epoch := 0; epoch < 10; epoch++ {
		if !g.Decide(Context{AgentID: 3, Epoch: epoch, Utility: 0.1}) {
			t.Fatal("greedy declined a sprint")
		}
	}
	// Hooks are no-ops but must be callable.
	g.EpochEnd(1, 500, true)
	g.WakeUp(3, 5)
}

func TestBackoffGreedyUntilFirstTrip(t *testing.T) {
	e := NewExponentialBackoff(1)
	if e.Name() != "exponential-backoff" {
		t.Errorf("name = %q", e.Name())
	}
	for epoch := 0; epoch < 5; epoch++ {
		if !e.Decide(Context{AgentID: 0, Epoch: epoch}) {
			t.Fatal("E-B should sprint greedily before any trip")
		}
		e.EpochEnd(epoch, 100, false)
	}
}

func TestBackoffWaitsAfterTrip(t *testing.T) {
	e := NewExponentialBackoff(42)
	// Three trips: window is 2^3 = 8.
	for i := 0; i < 3; i++ {
		e.EpochEnd(i, 900, true)
	}
	if e.window() != 8 {
		t.Fatalf("window = %d, want 8", e.window())
	}
	// Agents waking up draw waits in [1, window]; they must be blocked
	// until the wait expires and allowed afterwards.
	blockedAny := false
	for id := 0; id < 50; id++ {
		e.WakeUp(id, 10)
		allowedAt := -1
		for epoch := 11; epoch < 11+10; epoch++ {
			if e.Decide(Context{AgentID: id, Epoch: epoch}) {
				allowedAt = epoch
				break
			}
			blockedAny = true
		}
		if allowedAt < 0 {
			t.Fatalf("agent %d never allowed to sprint again", id)
		}
		if allowedAt > 11+8 {
			t.Fatalf("agent %d waited past the window: %d", id, allowedAt)
		}
	}
	if !blockedAny {
		t.Error("no agent waited at all; backoff has no effect")
	}
}

func TestBackoffWindowGrowsAndContracts(t *testing.T) {
	e := NewExponentialBackoff(5)
	e.EpochEnd(0, 900, true)
	e.EpochEnd(1, 900, true)
	if e.window() != 4 {
		t.Fatalf("window after 2 trips = %d", e.window())
	}
	// 100 quiet epochs contract the window by half.
	for epoch := 2; epoch < 103; epoch++ {
		e.EpochEnd(epoch, 10, false)
	}
	if e.window() != 2 {
		t.Fatalf("window after quiet interval = %d, want 2", e.window())
	}
	// Another quiet century brings it back to 1 (greedy).
	for epoch := 103; epoch < 204; epoch++ {
		e.EpochEnd(epoch, 10, false)
	}
	if e.window() != 1 {
		t.Fatalf("window = %d, want 1", e.window())
	}
	// It never goes below 1.
	for epoch := 204; epoch < 405; epoch++ {
		e.EpochEnd(epoch, 10, false)
	}
	if e.window() != 1 {
		t.Fatalf("window shrank below 1: %d", e.window())
	}
}

func TestBackoffWindowCapped(t *testing.T) {
	e := NewExponentialBackoff(5)
	for i := 0; i < 100; i++ {
		e.EpochEnd(i, 900, true)
	}
	if e.window() != 1<<10 {
		t.Fatalf("window = %d, want capped at 1024", e.window())
	}
}

func TestThresholdPolicy(t *testing.T) {
	p, err := NewThreshold("equilibrium-threshold", map[string]float64{
		"decision": 3.0,
		"pagerank": 5.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "equilibrium-threshold" {
		t.Errorf("name = %q", p.Name())
	}
	cases := []struct {
		class   string
		utility float64
		want    bool
	}{
		{"decision", 3.5, true},
		{"decision", 3.0, false}, // strict inequality, Eq. (8)
		{"decision", 2.0, false},
		{"pagerank", 4.9, false},
		{"pagerank", 12, true},
		{"unknown", 100, false}, // fail safe
	}
	for _, c := range cases {
		got := p.Decide(Context{Class: c.class, Utility: c.utility})
		if got != c.want {
			t.Errorf("%s u=%v: got %v, want %v", c.class, c.utility, got, c.want)
		}
	}
	p.EpochEnd(0, 0, false)
	p.WakeUp(0, 0)
}

func TestThresholdValidation(t *testing.T) {
	if _, err := NewThreshold("", map[string]float64{"a": 1}); err == nil {
		t.Error("empty label should error")
	}
	if _, err := NewThreshold("x", nil); err == nil {
		t.Error("empty thresholds should error")
	}
}

func TestThresholdCopiesInput(t *testing.T) {
	m := map[string]float64{"a": 1}
	p, _ := NewThreshold("x", m)
	m["a"] = 100
	if !p.Decide(Context{Class: "a", Utility: 2}) {
		t.Error("policy should have captured the original threshold")
	}
}

func TestNeverPolicy(t *testing.T) {
	var n Never
	if n.Name() != "never" {
		t.Errorf("name = %q", n.Name())
	}
	if n.Decide(Context{Utility: 1e9}) {
		t.Error("never sprinted")
	}
	n.EpochEnd(0, 0, true)
	n.WakeUp(0, 0)
}

func TestBackoffDeterministic(t *testing.T) {
	run := func() []bool {
		e := NewExponentialBackoff(7)
		out := []bool{}
		for i := 0; i < 4; i++ {
			e.EpochEnd(i, 900, true)
		}
		for id := 0; id < 20; id++ {
			e.WakeUp(id, 4)
		}
		for epoch := 5; epoch < 25; epoch++ {
			for id := 0; id < 20; id++ {
				out = append(out, e.Decide(Context{AgentID: id, Epoch: epoch}))
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("backoff is not deterministic for a fixed seed")
		}
	}
}

func TestNewPredictiveValidation(t *testing.T) {
	ths := map[string]float64{"c": 3}
	if _, err := NewPredictive("", ths, 0.5); err == nil {
		t.Error("empty label should error")
	}
	if _, err := NewPredictive("p", nil, 0.5); err == nil {
		t.Error("no thresholds should error")
	}
	if _, err := NewPredictive("p", ths, 0); err == nil {
		t.Error("alpha 0 should error")
	}
	if _, err := NewPredictive("p", ths, 1.5); err == nil {
		t.Error("alpha > 1 should error")
	}
}

func TestPredictiveUsesHistoryNotOracle(t *testing.T) {
	p, err := NewPredictive("pred", map[string]float64{"c": 3}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "pred" {
		t.Errorf("name = %q", p.Name())
	}
	// First epoch primes the predictor: no sprint even on a huge utility.
	if p.Decide(Context{AgentID: 1, Class: "c", Epoch: 0, Utility: 100}) {
		t.Error("unprimed predictive policy sprinted")
	}
	// With alpha=1 the estimate is last epoch's utility: a low current
	// utility after a high one still sprints (prediction lags reality).
	if !p.Decide(Context{AgentID: 1, Class: "c", Epoch: 1, Utility: 0.1}) {
		t.Error("should sprint on the stale high estimate")
	}
	// Now the estimate is 0.1: a high true utility is missed.
	if p.Decide(Context{AgentID: 1, Class: "c", Epoch: 2, Utility: 100}) {
		t.Error("should not sprint on the stale low estimate")
	}
	// Unknown class never sprints.
	if p.Decide(Context{AgentID: 2, Class: "x", Utility: 100}) {
		t.Error("unknown class sprinted")
	}
	p.EpochEnd(0, 0, false)
	p.WakeUp(1, 0)
}

func TestPredictiveAgentsIndependent(t *testing.T) {
	p, _ := NewPredictive("pred", map[string]float64{"c": 3}, 1.0)
	p.Decide(Context{AgentID: 1, Class: "c", Utility: 10}) // primes agent 1 high
	p.Decide(Context{AgentID: 2, Class: "c", Utility: 1})  // primes agent 2 low
	if !p.Decide(Context{AgentID: 1, Class: "c", Utility: 1}) {
		t.Error("agent 1 estimate should be high")
	}
	if p.Decide(Context{AgentID: 2, Class: "c", Utility: 10}) {
		t.Error("agent 2 estimate should be low")
	}
}

func TestPredictiveEWMAArithmetic(t *testing.T) {
	// alpha 0.5: the first utility (5) primes the estimate, the second (9)
	// moves it to 0.5*9 + 0.5*5 = 7. A threshold just below 7 sprints on
	// the third decision; a threshold of 7 does not (strict inequality).
	for _, c := range []struct {
		th   float64
		want bool
	}{{6.999, true}, {7, false}} {
		p, err := NewPredictive("pred", map[string]float64{"c": c.th}, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if p.Decide(Context{Class: "c", Utility: 5}) {
			t.Error("unprimed predictor sprinted")
		}
		if p.Decide(Context{Class: "c", Utility: 9}) {
			t.Errorf("th %v: estimate 5 sprinted", c.th)
		}
		if got := p.Decide(Context{Class: "c", Utility: 0}); got != c.want {
			t.Errorf("th %v: decision on estimate 7 = %v, want %v", c.th, got, c.want)
		}
	}
}

func TestPredictiveTracksPhases(t *testing.T) {
	// On a phase-structured trace, EWMA predictions agree with the
	// oracle's threshold decisions well above chance.
	b, err := workload.ByName("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.NewTraceGenerator(b, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictive("pred", map[string]float64{"pagerank": 5}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	agree, n := 0, 5000
	for i := 0; i < n; i++ {
		u := tr.Next()
		if p.Decide(Context{Class: "pagerank", Epoch: i, Utility: u}) == (u > 5) {
			agree++
		}
	}
	if frac := float64(agree) / float64(n); frac < 0.8 {
		t.Errorf("prediction agreement %v, want phase tracking to work", frac)
	}
}

func TestPredictiveInheritsThreshold(t *testing.T) {
	m := map[string]float64{"c": 3}
	p, err := NewPredictive("pred", m, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m["c"] = 100 // the class table is a copy
	if p.Name() != "pred" || p.Threshold.Name() != "pred" {
		t.Errorf("name = %q, threshold label = %q", p.Name(), p.Threshold.Name())
	}
	// An unknown class never sprints and leaves the agent unprimed.
	for i := 0; i < 3; i++ {
		if p.Decide(Context{AgentID: 1, Class: "x", Utility: 100}) {
			t.Fatal("unknown class sprinted")
		}
	}
	if p.Decide(Context{AgentID: 1, Class: "c", Utility: 10}) {
		t.Error("unknown-class decisions primed the predictor")
	}
	if !p.Decide(Context{AgentID: 1, Class: "c", Utility: 0}) {
		t.Error("estimate 10 should sprint over the copied threshold 3")
	}
}
