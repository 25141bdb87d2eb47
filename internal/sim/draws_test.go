package sim

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"sprintgame/internal/core"
	"sprintgame/internal/policy"
	"sprintgame/internal/power"
	"sprintgame/internal/workload"
)

// handTraceSet builds a replay trace set from a fixed formula, so its
// utilities do not depend on any sampler: count traces, trace i being
// len0+i epochs long.
func handTraceSet(name string, count, len0, mul int) *workload.TraceSet {
	ts := &workload.TraceSet{Benchmark: name}
	for i := 0; i < count; i++ {
		n := len0 + i
		tr := &workload.Trace{Benchmark: name, Utilities: make([]float64, n), BaseTPS: make([]float64, n)}
		for e := 0; e < n; e++ {
			tr.Utilities[e] = 1 + 0.5*float64((i*mul+e*11)%17)
			tr.BaseTPS[e] = 50
		}
		ts.Traces = append(ts.Traces, tr)
	}
	return ts
}

// replayConfig is a 100-agent, two-class rack driven only by hand-built
// traces; under replayPolicy it trips, cools and wakes agents up.
func replayConfig() Config {
	game := core.DefaultConfig()
	game.N = 100
	game.Trip = power.LinearTripModel{NMin: 25, NMax: 75}
	return Config{
		Epochs:       400,
		Seed:         21,
		Game:         game,
		RecordSeries: true,
		TrackAgents:  []int{0, 59, 99},
		Groups: []Group{
			{Class: "a", Count: 60, TraceSet: handTraceSet("a", 7, 23, 37)},
			{Class: "b", Count: 40, TraceSet: handTraceSet("b", 5, 31, 13)},
		},
	}
}

func replayPolicy(t *testing.T) policy.Policy {
	t.Helper()
	pol, err := policy.NewThreshold("hand", map[string]float64{"a": 5.5, "b": 7})
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestReplayResultPinned pins that replaying recorded traces keeps its
// utility streams: a replay is index-based, so however the simulator
// chooses which utilities to read, a replay-driven run must produce the
// Result recorded in testdata/replay_result.json.
func TestReplayResultPinned(t *testing.T) {
	res, err := Run(replayConfig(), replayPolicy(t))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/replay_result.json")
	if err != nil {
		t.Fatal(err)
	}
	var want Result
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, &want) {
		got, _ := json.Marshal(res)
		t.Fatalf("replay-driven Result changed:\n got %s\nwant %s", got, raw)
	}
	if res.Trips == 0 || res.Shares.Cooling == 0 || res.Shares.Recovery == 0 {
		t.Fatalf("run must trip, cool and recover: %+v", res)
	}
}

// countingSource counts the draws and skips of the utility source it
// wraps.
type countingSource struct {
	utilitySource
	next, skip *int
}

func (c countingSource) Next() float64 { *c.next++; return c.utilitySource.Next() }
func (c countingSource) Skip()         { *c.skip++; c.utilitySource.Skip() }

// countingPolicy counts Decide and WakeUp calls.
type countingPolicy struct {
	policy.Policy
	decide, wake int
}

func (c *countingPolicy) Decide(ctx policy.Context) bool {
	c.decide++
	return c.Policy.Decide(ctx)
}

func (c *countingPolicy) WakeUp(agent, epoch int) {
	c.wake++
	c.Policy.WakeUp(agent, epoch)
}

// TestUtilityDrawnOnlyWhenDecided pins the simulator's draw contract:
// a utility is drawn exactly when the policy is asked to decide, every
// other agent-epoch only advances its source, and no epoch does both
// or neither. The runs trip, cool, and hold woken agents.
func TestUtilityDrawnOnlyWhenDecided(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		pol  policy.Policy
	}{
		{"generated", smallConfig(t, "decision", 2000), &policy.Greedy{}},
		{"replayed", replayConfig(), replayPolicy(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol := &countingPolicy{Policy: tc.pol}
			s, err := NewStepper(tc.cfg, pol)
			if err != nil {
				t.Fatal(err)
			}
			var next, skip int
			for i := range s.st.agents {
				a := &s.st.agents[i]
				a.trace = countingSource{utilitySource: a.trace, next: &next, skip: &skip}
			}
			for s.Completed() < tc.cfg.Epochs {
				if _, err := s.Step(); err != nil {
					t.Fatal(err)
				}
			}
			res := s.Finalize()
			if next != pol.decide {
				t.Errorf("%d utility draws for %d decisions", next, pol.decide)
			}
			if all := tc.cfg.Game.N * tc.cfg.Epochs; next+skip != all {
				t.Errorf("%d draws + %d skips, want one per agent-epoch (%d)", next, skip, all)
			}
			if res.Trips == 0 || res.Shares.Cooling == 0 || pol.wake == 0 {
				t.Errorf("run must trip, cool and wake agents: %d trips, cooling share %v, %d wake-ups",
					res.Trips, res.Shares.Cooling, pol.wake)
			}
		})
	}
}
