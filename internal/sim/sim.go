// Package sim is the epoch-driven rack simulator used for the paper's
// evaluation (§5-§6): N agents run application traces, decide sprints
// under a policy, and experience cooling, breaker trips, and rack
// recovery.
//
// Task accounting per agent-epoch, normalized to normal mode = 1:
//
//   - sprint epoch: u task units (the UPS carries in-progress sprints
//     through a trip, §2.2, so a tripped sprint still completes);
//   - active epoch without sprint, and cooling epoch: 1 unit;
//   - recovery epoch: 0 units — the rack sheds load while its batteries
//     recharge ("idle recovery", §6.1).
//
// The accounting matches core.EvaluateThreshold so simulated and analytic
// throughput are directly comparable.
package sim

import (
	"errors"
	"fmt"

	"sprintgame/internal/core"
	"sprintgame/internal/policy"
	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

// AgentState is an agent's condition at the start of an epoch (§3.2).
type AgentState int

const (
	// Active: the agent can sprint.
	Active AgentState = iota
	// Cooling: the chip must dissipate sprint heat; no sprinting.
	Cooling
	// Recovery: the rack's batteries are recharging; no sprinting.
	Recovery
)

// String names the state.
func (s AgentState) String() string {
	switch s {
	case Active:
		return "active"
	case Cooling:
		return "cooling"
	case Recovery:
		return "recovery"
	default:
		return fmt.Sprintf("AgentState(%d)", int(s))
	}
}

// Group is a set of agents running the same benchmark.
type Group struct {
	// Class labels the group; policies use it to look up strategies.
	Class string
	// Count is the number of agents.
	Count int
	// Bench generates the group's utility traces on the fly. Exactly one
	// of Bench and TraceSet must be set.
	Bench *workload.Benchmark
	// TraceSet replays recorded traces instead (the paper's trace-driven
	// methodology): agent i replays trace i mod len(Traces) from a
	// deterministic offset.
	TraceSet *workload.TraceSet
}

// Config configures a simulation run.
type Config struct {
	// Epochs is the number of epochs to simulate.
	Epochs int
	// Seed makes the run reproducible.
	Seed uint64
	// Game supplies N, pc, pr, and the trip model (Table 2).
	Game core.Config
	// Groups partitions the rack's agents; counts must sum to Game.N.
	Groups []Group
	// RecordSeries enables per-epoch series (sprinter counts, state
	// counts) in the result; disable for long benchmark runs.
	RecordSeries bool
	// TrackAgents lists agent ids whose individual task rates should be
	// reported (used by the deviation experiments of §6.4).
	TrackAgents []int
	// Metrics, when non-nil, receives run metrics (sim.epochs,
	// sim.sprinters_per_epoch, power.trips, ...). Nil disables metrics
	// at negligible cost.
	Metrics *telemetry.Registry
	// Span, when non-nil, traces the run: a sim.run child span whose
	// end fields summarize the run, with one sim.epoch child per epoch
	// carrying the epoch's sprinters (total and per class), recovering
	// agents, and trip and recovery transitions. Nil disables tracing.
	// Like Metrics, Span is a telemetry sink and never affects results.
	Span *telemetry.Span
}

// Validate checks the simulation configuration.
func (c Config) Validate() error {
	if c.Epochs <= 0 {
		return errors.New("sim: need at least one epoch")
	}
	if err := c.Game.Validate(); err != nil {
		return err
	}
	if len(c.Groups) == 0 {
		return errors.New("sim: need at least one agent group")
	}
	total := 0
	seen := make(map[string]bool, len(c.Groups))
	for _, g := range c.Groups {
		if g.Count <= 0 {
			return fmt.Errorf("sim: group %q needs agents", g.Class)
		}
		// Policies and per-class results key on Class, so two groups
		// sharing one would be indistinguishable.
		if seen[g.Class] {
			return fmt.Errorf("sim: duplicate group class %q", g.Class)
		}
		seen[g.Class] = true
		if (g.Bench == nil) == (g.TraceSet == nil) {
			return fmt.Errorf("sim: group %q needs exactly one of a benchmark or a trace set", g.Class)
		}
		if g.TraceSet != nil {
			if err := g.TraceSet.Validate(); err != nil {
				return fmt.Errorf("sim: group %q: %w", g.Class, err)
			}
		}
		total += g.Count
	}
	if total != c.Game.N {
		return fmt.Errorf("sim: group counts sum to %d, config N = %d", total, c.Game.N)
	}
	return nil
}

// utilitySource is an epoch utility stream; satisfied by both
// workload.TraceGenerator (synthesis) and workload.Replayer (recorded
// traces).
type utilitySource interface {
	Next() float64
}

// agent is the per-agent simulation state.
type agent struct {
	class string
	group int // index into Config.Groups (classes are unique)
	state AgentState
	trace utilitySource
}

// StateShares is the fraction of agent-epochs spent sprinting, active
// without sprinting, cooling, and recovering (Figure 7's four bars).
type StateShares struct {
	Sprinting, ActiveIdle, Cooling, Recovery float64
}

// Sum returns the total (should be 1).
func (s StateShares) Sum() float64 {
	return s.Sprinting + s.ActiveIdle + s.Cooling + s.Recovery
}

// GroupResult aggregates per-class outcomes.
type GroupResult struct {
	Class string
	Count int
	// TaskRate is task units per agent-epoch (normal mode == 1).
	TaskRate float64
	// Shares is the class's time-in-state breakdown.
	Shares StateShares
	// MeanSprintUtility is the mean utility of epochs the class's agents
	// actually sprinted in (0 if they never sprinted).
	MeanSprintUtility float64
}

// Result is a completed simulation.
type Result struct {
	Policy string
	Epochs int
	// TaskRate is rack-wide task units per agent-epoch.
	TaskRate float64
	// Trips is the number of power emergencies.
	Trips int
	// Shares is the rack-wide time-in-state breakdown.
	Shares StateShares
	// Groups holds per-class results in input order.
	Groups []GroupResult
	// SprintersPerEpoch is the Figure 6 series (nil unless RecordSeries).
	SprintersPerEpoch []int
	// RecoveringPerEpoch counts agents in recovery per epoch (nil unless
	// RecordSeries).
	RecoveringPerEpoch []int
	// AgentRates maps each tracked agent id (Config.TrackAgents) to its
	// individual task units per epoch.
	AgentRates map[int]float64
	// AgentSprints maps each tracked agent id to the number of epochs it
	// sprinted.
	AgentSprints map[int]int
}

// Run simulates the rack under the given policy.
//
// Run is a driver over the same epoch machine as Stepper: it loops
// step() to completion in one call. Callers that need to interleave
// work between epochs, or to stop a rack early (the serving layer's
// arrival-time routing, a cluster rack killed by a fault), use a
// Stepper instead.
func Run(cfg Config, pol policy.Policy) (*Result, error) {
	st, err := newRunState(cfg, pol)
	if err != nil {
		return nil, err
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		st.step()
	}
	return st.finalize(), nil
}
