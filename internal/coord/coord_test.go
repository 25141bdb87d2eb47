package coord

import (
	"fmt"
	"math"
	"testing"

	"sprintgame/internal/core"
	"sprintgame/internal/dist"
	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

func gameConfig() core.Config {
	return core.DefaultConfig()
}

func profileFor(t *testing.T, id, class string, seed uint64, epochs int) Profile {
	t.Helper()
	b, err := workload.ByName(class)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewTraceGenerator(b, seed)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dist.FromSamples(g.SampleDensity(epochs), 60)
	if err != nil {
		t.Fatal(err)
	}
	return Profile{Agent: id, Class: class, Values: d.Values(), Weights: d.Probs()}
}

func TestProfileValidate(t *testing.T) {
	good := Profile{Agent: "a1", Class: "decision", Values: []float64{1, 2}, Weights: []float64{1, 1}}
	if _, err := good.density(); err != nil {
		t.Fatal(err)
	}
	cases := []Profile{
		{Class: "c", Values: []float64{1}, Weights: []float64{1}},
		{Agent: "a", Values: []float64{1}, Weights: []float64{1}},
		{Agent: "a", Class: "c"},
		{Agent: "a", Class: "c", Values: []float64{1, 2}, Weights: []float64{1}},
		{Agent: "a", Class: "c", Values: []float64{1}, Weights: []float64{-1}},
	}
	for i, p := range cases {
		if _, err := p.density(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestNewCoordinatorRejectsBadConfig(t *testing.T) {
	bad := gameConfig()
	bad.Delta = 2
	if _, err := NewCoordinator(bad); err == nil {
		t.Error("invalid config should be rejected")
	}
}

func TestCoordinatorEndToEnd(t *testing.T) {
	c, err := NewCoordinator(gameConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 600 decision agents, 400 pagerank agents.
	for i := 0; i < 600; i++ {
		p := profileFor(t, fmt.Sprintf("d%d", i), "decision", uint64(i+1), 400)
		if err := c.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		p := profileFor(t, fmt.Sprintf("p%d", i), "pagerank", uint64(i+9000), 400)
		if err := c.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.classOf) != 1000 {
		t.Fatalf("agent count = %d", len(c.classOf))
	}
	strategies, eq, err := c.ComputeStrategies()
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Converged {
		t.Error("equilibrium did not converge")
	}
	if len(strategies) != 2 {
		t.Fatalf("strategies for %d classes", len(strategies))
	}
	d := strategies["decision"]
	p := strategies["pagerank"]
	if d.Agents != 600 || p.Agents != 400 {
		t.Errorf("agent counts %d/%d", d.Agents, p.Agents)
	}
	if d.Threshold <= 0 || p.Threshold <= 0 {
		t.Error("thresholds should be positive")
	}
	// PageRank's bimodal profile yields the higher threshold.
	if p.Threshold <= d.Threshold {
		t.Errorf("pagerank threshold %v should exceed decision's %v",
			p.Threshold, d.Threshold)
	}
	if d.Ptrip != p.Ptrip {
		t.Error("classes should share the equilibrium Ptrip")
	}
}

func TestCoordinatorMatchesDirectGameSolution(t *testing.T) {
	// Profiles sampled from the model density should lead the coordinator
	// to (approximately) the same thresholds as solving the game on the
	// analytic density.
	c, _ := NewCoordinator(gameConfig())
	for i := 0; i < 50; i++ {
		if err := c.Submit(profileFor(t, fmt.Sprintf("a%d", i), "decision", uint64(i+1), 2000)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := gameConfig()
	cfg.N = 50
	strategies, _, err := c.ComputeStrategies()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("decision")
	d, _ := b.DiscreteDensity(250)
	eq, err := core.SingleClass("decision", d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := strategies["decision"].Threshold
	want := eq.Classes[0].Threshold
	if math.Abs(got-want) > 0.25*want {
		t.Errorf("coordinator threshold %v vs analytic %v", got, want)
	}
}

func TestComputeStrategiesNoProfiles(t *testing.T) {
	c, _ := NewCoordinator(gameConfig())
	if _, _, err := c.ComputeStrategies(); err == nil {
		t.Error("no profiles should error")
	}
}

// TestComputeStrategiesRejectsUnconverged: a solve that runs out of
// Algorithm 1 iterations is not an equilibrium, so the coordinator
// returns an error (the server answers with an error response) and
// counts it, instead of serving the capped iterate as strategies.
func TestComputeStrategiesRejectsUnconverged(t *testing.T) {
	cfg := gameConfig()
	cfg.MaxFixedPointIter = 1
	cfg.Metrics = telemetry.NewRegistry()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, class := range []string{"decision", "pagerank", "svm"} {
		for j := 0; j < 4; j++ {
			id := fmt.Sprintf("%s%d", class, j)
			if err := c.Submit(profileFor(t, id, class, uint64(10*i+j+1), 200)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if strategies, _, err := c.ComputeStrategies(); err == nil {
		t.Fatalf("unconverged solve served %d strategies", len(strategies))
	}
	s := &Server{coord: c}
	if resp := s.dispatch(request{Type: "strategies"}, nil); resp.Error == "" || resp.Strategies != nil {
		t.Errorf("server answered %+v, want an error response", resp)
	}
	if n := cfg.Metrics.Counter("coord.unconverged").Value(); n != 2 {
		t.Errorf("coord.unconverged = %d, want 2", n)
	}
}

func TestSubmitReplacesProfile(t *testing.T) {
	c, _ := NewCoordinator(gameConfig())
	p := profileFor(t, "a1", "decision", 1, 200)
	if err := c.Submit(p); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(p); err != nil {
		t.Fatal(err)
	}
	if len(c.classOf) != 1 {
		t.Errorf("resubmission duplicated the agent: %d", len(c.classOf))
	}
	if err := c.Submit(Profile{}); err == nil {
		t.Error("invalid profile should be rejected")
	}
}

func TestAgentProfileEpochs(t *testing.T) {
	b, _ := workload.ByName("linear")
	if _, err := NewAgent("", b, 3); err == nil {
		t.Error("empty id should error")
	}
	a, err := NewAgent("a1", b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ProfileEpochs(0, 10); err == nil {
		t.Error("zero epochs should error")
	}
	p, err := a.ProfileEpochs(3000, 40)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.density()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-b.MeanSpeedup()) > 0.3 {
		t.Errorf("profiled mean %v vs model %v", d.Mean(), b.MeanSpeedup())
	}
}
