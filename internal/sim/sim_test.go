package sim

import (
	"math"
	"strings"
	"testing"

	"sprintgame/internal/core"
	"sprintgame/internal/policy"
	"sprintgame/internal/power"
	"sprintgame/internal/workload"
)

func bench(t *testing.T, name string) *workload.Benchmark {
	t.Helper()
	b, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// smallConfig keeps unit tests fast: 100 agents, scaled trip model.
func smallConfig(t *testing.T, name string, epochs int) Config {
	game := core.DefaultConfig()
	game.N = 100
	game.Trip = power.LinearTripModel{NMin: 25, NMax: 75}
	return Config{
		Epochs: epochs,
		Seed:   11,
		Game:   game,
		Groups: []Group{{Class: name, Count: 100, Bench: bench(t, name)}},
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig(t, "decision", 10)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Epochs = 0
	if bad.Validate() == nil {
		t.Error("zero epochs should fail")
	}
	bad = good
	bad.Groups = nil
	if bad.Validate() == nil {
		t.Error("no groups should fail")
	}
	bad = good
	bad.Groups = []Group{{Class: "x", Count: 50, Bench: bench(t, "decision")}}
	if bad.Validate() == nil {
		t.Error("count mismatch should fail")
	}
	bad = good
	bad.Groups = []Group{{Class: "x", Count: 100, Bench: nil}}
	if bad.Validate() == nil {
		t.Error("nil benchmark should fail")
	}
	bad = good
	bad.Game.N = 0
	if bad.Validate() == nil {
		t.Error("invalid game config should fail")
	}
}

func TestAgentStateString(t *testing.T) {
	if Active.String() != "active" || Cooling.String() != "cooling" ||
		Recovery.String() != "recovery" {
		t.Error("state names wrong")
	}
	if AgentState(9).String() == "" {
		t.Error("unknown state should still print")
	}
}

func TestRunRejectsNilPolicy(t *testing.T) {
	if _, err := Run(smallConfig(t, "decision", 10), nil); err == nil {
		t.Error("nil policy should error")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := smallConfig(t, "decision", 200)
	a, err := Run(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.TaskRate != b.TaskRate || a.Trips != b.Trips {
		t.Error("same seed produced different results")
	}
}

func TestNeverPolicyBaseline(t *testing.T) {
	// Without sprints the rack completes exactly 1 unit per agent-epoch
	// and never trips.
	cfg := smallConfig(t, "decision", 300)
	res, err := Run(cfg, policy.Never{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TaskRate-1) > 1e-12 {
		t.Errorf("baseline rate = %v, want exactly 1", res.TaskRate)
	}
	if res.Trips != 0 {
		t.Errorf("baseline tripped %d times", res.Trips)
	}
	if res.Shares.ActiveIdle != 1 {
		t.Errorf("baseline shares = %+v", res.Shares)
	}
}

func TestSharesSumToOne(t *testing.T) {
	cfg := smallConfig(t, "decision", 400)
	for _, pol := range []policy.Policy{
		policy.NewGreedy(1), policy.NewExponentialBackoff(2), policy.Never{},
	} {
		res, err := Run(cfg, pol)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Shares.Sum()-1) > 1e-9 {
			t.Errorf("%s: shares sum to %v", pol.Name(), res.Shares.Sum())
		}
		for _, g := range res.Groups {
			if math.Abs(g.Shares.Sum()-1) > 1e-9 {
				t.Errorf("%s group %s: shares sum to %v", pol.Name(), g.Class, g.Shares.Sum())
			}
		}
	}
}

func TestGreedyDynamicsMatchPaper(t *testing.T) {
	// §6.1: Greedy produces an unstable system that spends most of its
	// time recovering from emergencies.
	cfg := smallConfig(t, "decision", 1000)
	cfg.RecordSeries = true
	res, err := Run(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trips < 10 {
		t.Errorf("greedy tripped only %d times in 1000 epochs", res.Trips)
	}
	if res.Shares.Recovery < 0.5 {
		t.Errorf("greedy recovery share = %v, paper reports > 50%%", res.Shares.Recovery)
	}
	// Oscillation: the sprinter series hits both extremes.
	maxS := 0
	for _, s := range res.SprintersPerEpoch {
		if s > maxS {
			maxS = s
		}
	}
	if maxS < 90 {
		t.Errorf("greedy never mass-sprinted: max %d", maxS)
	}
}

func TestBackoffMoreStableThanGreedy(t *testing.T) {
	// §6.1: E-B produces a more stable system with fewer emergencies,
	// keeping sprinters consistently below Nmin.
	cfg := smallConfig(t, "decision", 1000)
	cfg.RecordSeries = true
	g, err := Run(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Run(cfg, policy.NewExponentialBackoff(2))
	if err != nil {
		t.Fatal(err)
	}
	if eb.Trips >= g.Trips {
		t.Errorf("E-B trips (%d) should be fewer than greedy's (%d)", eb.Trips, g.Trips)
	}
	if eb.Shares.Recovery >= g.Shares.Recovery {
		t.Errorf("E-B recovery share %v should be below greedy's %v",
			eb.Shares.Recovery, g.Shares.Recovery)
	}
	if eb.TaskRate <= g.TaskRate {
		t.Errorf("E-B rate %v should beat greedy's %v", eb.TaskRate, g.TaskRate)
	}
}

func TestEquilibriumPolicyStableAndSelective(t *testing.T) {
	cfg := smallConfig(t, "decision", 1000)
	cfg.RecordSeries = true
	pol, eq, err := BuildEquilibriumPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Converged {
		t.Fatal("equilibrium did not converge")
	}
	res, err := Run(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Run(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	// E-T's sprints are timely: mean utility of sprinted epochs exceeds
	// greedy's unselective mean (§6.1: "a sprint in E-T or C-T
	// contributes more to performance").
	if res.Groups[0].MeanSprintUtility <= g.Groups[0].MeanSprintUtility {
		t.Errorf("E-T sprint utility %v not above greedy's %v",
			res.Groups[0].MeanSprintUtility, g.Groups[0].MeanSprintUtility)
	}
	// Far fewer emergencies than greedy.
	if res.Trips > g.Trips/2 {
		t.Errorf("E-T trips %d vs greedy %d", res.Trips, g.Trips)
	}
	// Big throughput advantage (the headline: 4-6x at rack scale; allow
	// a wide band at this small scale).
	if res.TaskRate < 2*g.TaskRate {
		t.Errorf("E-T rate %v not well above greedy %v", res.TaskRate, g.TaskRate)
	}
}

func TestSeriesRecording(t *testing.T) {
	cfg := smallConfig(t, "decision", 50)
	cfg.RecordSeries = true
	res, err := Run(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SprintersPerEpoch) != 50 || len(res.RecoveringPerEpoch) != 50 {
		t.Fatal("series not recorded")
	}
	cfg.RecordSeries = false
	res, err = Run(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.SprintersPerEpoch != nil {
		t.Error("series recorded when disabled")
	}
}

func TestHeterogeneousGroups(t *testing.T) {
	game := core.DefaultConfig()
	game.N = 100
	game.Trip = power.LinearTripModel{NMin: 25, NMax: 75}
	cfg := Config{
		Epochs: 300,
		Seed:   3,
		Game:   game,
		Groups: []Group{
			{Class: "decision", Count: 60, Bench: bench(t, "decision")},
			{Class: "pagerank", Count: 40, Bench: bench(t, "pagerank")},
		},
	}
	pol, eq, err := BuildEquilibriumPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(eq.Classes) != 2 {
		t.Fatalf("expected 2 classes, got %d", len(eq.Classes))
	}
	res, err := Run(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("expected 2 group results")
	}
	if res.Groups[0].Class != "decision" || res.Groups[1].Class != "pagerank" {
		t.Error("group order not preserved")
	}
	for _, g := range res.Groups {
		if g.TaskRate <= 0 {
			t.Errorf("group %s rate %v", g.Class, g.TaskRate)
		}
	}
}

// TestDuplicateGroupClassRejected: two groups sharing a class would
// fold the earlier group's tallies into the later one's result, so
// Validate (and therefore Run and NewStepper) must refuse them.
func TestDuplicateGroupClassRejected(t *testing.T) {
	cfg := smallConfig(t, "decision", 10)
	b := bench(t, "decision")
	cfg.Groups = []Group{
		{Class: "decision", Count: 50, Bench: b},
		{Class: "decision", Count: 50, Bench: b},
	}
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), `duplicate group class "decision"`) {
		t.Fatalf("Validate = %v, want a duplicate-class error", err)
	}
	if _, err := Run(cfg, policy.NewGreedy(1)); err == nil {
		t.Error("Run accepted duplicate group classes")
	}
	if _, err := NewStepper(cfg, policy.NewGreedy(1)); err == nil {
		t.Error("NewStepper accepted duplicate group classes")
	}
	// The same split under distinct classes runs, and each group's
	// tallies stay its own.
	cfg.Groups[1].Class = "decision-b"
	res, err := Run(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Groups {
		if g.TaskRate <= 0 || math.Abs(g.Shares.Sum()-1) > 1e-9 {
			t.Errorf("group %s: rate %v, shares sum %v", g.Class, g.TaskRate, g.Shares.Sum())
		}
	}
}

func TestBuildCooperativeRejectsHeterogeneous(t *testing.T) {
	game := core.DefaultConfig()
	game.N = 100
	game.Trip = power.LinearTripModel{NMin: 25, NMax: 75}
	cfg := Config{
		Epochs: 10, Seed: 1, Game: game,
		Groups: []Group{
			{Class: "a", Count: 50, Bench: bench(t, "decision")},
			{Class: "b", Count: 50, Bench: bench(t, "pagerank")},
		},
	}
	if _, _, err := BuildCooperativePolicy(cfg); err == nil {
		t.Error("cooperative search should reject multiple classes")
	}
}

func TestComparePoliciesSingleApp(t *testing.T) {
	cfg := smallConfig(t, "decision", 600)
	cmp, err := ComparePolicies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb, et, ct := cmp.Normalized()
	if eb <= 1 {
		t.Errorf("E-B normalized = %v, want > 1", eb)
	}
	if et <= eb {
		t.Errorf("E-T (%v) should beat E-B (%v)", et, eb)
	}
	if ct <= 1 {
		t.Errorf("C-T normalized = %v", ct)
	}
	// E-T achieves a large fraction of C-T.
	if et < 0.75*ct {
		t.Errorf("E-T (%v) below 75%% of C-T (%v)", et, ct)
	}
}

func TestComparePoliciesHeterogeneousSkipsCT(t *testing.T) {
	game := core.DefaultConfig()
	game.N = 100
	game.Trip = power.LinearTripModel{NMin: 25, NMax: 75}
	cfg := Config{
		Epochs: 100, Seed: 1, Game: game,
		Groups: []Group{
			{Class: "a", Count: 50, Bench: bench(t, "decision")},
			{Class: "b", Count: 50, Bench: bench(t, "pagerank")},
		},
	}
	cmp, err := ComparePolicies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Cooperative != nil {
		t.Error("heterogeneous comparison should skip C-T")
	}
	_, _, ct := cmp.Normalized()
	if ct != 0 {
		t.Errorf("absent C-T should normalize to 0, got %v", ct)
	}
}

func TestDepthScaledRecovery(t *testing.T) {
	// A mass trip (many sprinters) must produce a longer expected
	// recovery than a marginal one. Compare rack recovery shares between
	// greedy (mass trips) and a run with trips forced at Nmin scale.
	cfg := smallConfig(t, "linear", 800)
	g, err := Run(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	// Greedy on linear sprints everything: trips happen at ~33 sprinters
	// (depth ~1.3). Recovery per trip = 8.33 * depth / trips...
	// Sanity: recovery share is large but below 1, and trips happened.
	if g.Trips == 0 {
		t.Fatal("greedy never tripped")
	}
	if g.Shares.Recovery <= 0.3 || g.Shares.Recovery >= 0.95 {
		t.Errorf("recovery share = %v", g.Shares.Recovery)
	}
	perTrip := g.Shares.Recovery * 800 / float64(g.Trips)
	base := 1 / (1 - cfg.Game.Pr)
	if perTrip < base*0.8 {
		t.Errorf("recovery per trip %v below the base duration %v", perTrip, base)
	}
}

func TestNormalizedZeroGreedy(t *testing.T) {
	c := &Comparison{Greedy: &Result{TaskRate: 0}, Backoff: &Result{TaskRate: 1},
		Equilibrium: &Result{TaskRate: 1}}
	if eb, et, ct := c.Normalized(); eb != 0 || et != 0 || ct != 0 {
		t.Error("zero greedy rate should normalize to zeros")
	}
}

func TestTraceDrivenSimulation(t *testing.T) {
	// Recorded traces drive the simulation exactly as live generators do:
	// the trace-driven run is deterministic and produces sensible rates,
	// and equilibrium thresholds can be computed from the recordings.
	b := bench(t, "decision")
	ts, err := workload.GenerateTraceSet(b, 9, 20, 400)
	if err != nil {
		t.Fatal(err)
	}
	game := core.DefaultConfig()
	game.N = 100
	game.Trip = power.LinearTripModel{NMin: 25, NMax: 75}
	cfg := Config{
		Epochs: 300,
		Seed:   5,
		Game:   game,
		Groups: []Group{{Class: "decision", Count: 100, TraceSet: ts}},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	pol, eq, err := BuildEquilibriumPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Converged {
		t.Fatal("equilibrium from recorded traces did not converge")
	}
	a, err := Run(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := Run(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	if a.TaskRate != bres.TaskRate {
		t.Error("trace-driven run is not deterministic")
	}
	if a.TaskRate <= 1 {
		t.Errorf("trace-driven E-T rate = %v, want above baseline", a.TaskRate)
	}
}

func TestGroupValidationRequiresExactlyOneSource(t *testing.T) {
	b := bench(t, "decision")
	ts, err := workload.GenerateTraceSet(b, 9, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	game := core.DefaultConfig()
	game.N = 10
	game.Trip = power.LinearTripModel{NMin: 3, NMax: 8}
	base := Config{Epochs: 10, Seed: 1, Game: game}

	both := base
	both.Groups = []Group{{Class: "x", Count: 10, Bench: b, TraceSet: ts}}
	if both.Validate() == nil {
		t.Error("both sources should fail validation")
	}
	neither := base
	neither.Groups = []Group{{Class: "x", Count: 10}}
	if neither.Validate() == nil {
		t.Error("no source should fail validation")
	}
	badTS := base
	badTS.Groups = []Group{{Class: "x", Count: 10, TraceSet: &workload.TraceSet{}}}
	if badTS.Validate() == nil {
		t.Error("invalid trace set should fail validation")
	}
}

func TestTrackAgentsOutOfRange(t *testing.T) {
	cfg := smallConfig(t, "decision", 10)
	cfg.TrackAgents = []int{5000}
	if _, err := Run(cfg, policy.NewGreedy(1)); err == nil {
		t.Error("out-of-range tracked agent should error")
	}
}

func TestTrackedAgentsReported(t *testing.T) {
	cfg := smallConfig(t, "decision", 200)
	cfg.TrackAgents = []int{0, 7}
	res, err := Run(cfg, policy.NewGreedy(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AgentRates) != 2 || len(res.AgentSprints) != 2 {
		t.Fatalf("tracked maps wrong: %v %v", res.AgentRates, res.AgentSprints)
	}
	for id, rate := range res.AgentRates {
		if rate < 0 {
			t.Errorf("agent %d rate %v", id, rate)
		}
	}
}
