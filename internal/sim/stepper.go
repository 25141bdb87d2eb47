package sim

import (
	"errors"
	"fmt"

	"sprintgame/internal/policy"
	"sprintgame/internal/stats"
	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

// EpochStats is one epoch's outcome, returned by Stepper.Step. It is the
// live observable the serving layer (internal/route) builds rack
// snapshots from: capacity produced, sprint pressure, and the rack's
// recovery state after the epoch.
type EpochStats struct {
	// Epoch is the epoch index that just ran.
	Epoch int
	// Units is the task units the rack produced this epoch (normal
	// mode = 1 unit per agent-epoch).
	Units float64
	// Sprinters is the number of agents that sprinted.
	Sprinters int
	// Recovering is the number of agents that sat out the epoch in
	// recovery.
	Recovering int
	// Tripped reports a power emergency this epoch.
	Tripped bool
	// Ptrip is the trip probability the breaker evaluated at this
	// epoch's sprint count (Eq. 11).
	Ptrip float64
	// RackRecovering reports whether the rack is in battery recovery
	// after this epoch's transitions.
	RackRecovering bool
	// RecoveryExit is the per-epoch probability the current recovery
	// ends; its depth scaling makes 1/RecoveryExit the expected epochs
	// until the rack serves again.
	RecoveryExit float64
}

// tally accumulates one group's task units and state occupancy.
type tally struct {
	units                             float64
	sprint, activeIdle, cool, recover float64
	sprintUtil                        float64
	sprintCount                       float64
}

// runState is the simulator's full mid-run state. sim.Run and
// sim.Stepper are two drivers over the same state machine: Run loops
// step() to completion in one call, the Stepper hands control of the
// epoch loop to the caller (the serving layer interleaves routing
// decisions between epochs). Both produce byte-identical results for
// the same Config because step() is the single epoch implementation.
type runState struct {
	cfg Config
	pol policy.Policy

	agents  []agent
	rackRNG *stats.RNG

	res     *Result
	tallies []tally

	agentUnits   map[int]float64
	agentSprints map[int]int

	sprinting []bool
	utilities []float64
	holdUntil []int

	rackRecovering bool
	recoveryExit   float64
	nMin           float64

	epochCounter    *telemetry.Counter
	tripCounter     *telemetry.Counter
	recoveryCounter *telemetry.Counter
	sprinterHist    *telemetry.Histogram
	runSpan         *telemetry.Span
	classSprints    []int // per-group sprinters this epoch, kept only when tracing

	completed int
}

// newRunState validates the configuration and builds the ready-to-step
// simulation: agents with their utility sources, the rack RNG stream,
// result skeleton, and hoisted telemetry instruments. The RNG draw
// order here (per-agent source seeding, then the rack stream split)
// fixes the determinism contract for everything that follows.
func newRunState(cfg Config, pol policy.Policy) (*runState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pol == nil {
		return nil, errors.New("sim: nil policy")
	}
	st := &runState{cfg: cfg, pol: pol}
	master := stats.NewRNG(cfg.Seed)
	st.agents = make([]agent, 0, cfg.Game.N)
	for gi, g := range cfg.Groups {
		for i := 0; i < g.Count; i++ {
			var src utilitySource
			if g.TraceSet != nil {
				tr := g.TraceSet.Traces[i%len(g.TraceSet.Traces)]
				rep, err := workload.NewReplayer(tr, master.Intn(tr.Len()))
				if err != nil {
					return nil, fmt.Errorf("sim: group %q: %w", g.Class, err)
				}
				src = rep
			} else {
				gen, err := workload.NewTraceGenerator(g.Bench, master.Uint64())
				if err != nil {
					return nil, fmt.Errorf("sim: group %q: %w", g.Class, err)
				}
				src = gen
			}
			st.agents = append(st.agents, agent{class: g.Class, group: gi, state: Active, trace: src})
		}
	}
	st.rackRNG = master.Split()

	st.res = &Result{Policy: pol.Name(), Epochs: cfg.Epochs}
	st.res.Groups = make([]GroupResult, len(cfg.Groups))
	for gi, g := range cfg.Groups {
		st.res.Groups[gi] = GroupResult{Class: g.Class, Count: g.Count}
	}
	if cfg.RecordSeries {
		st.res.SprintersPerEpoch = make([]int, cfg.Epochs)
		st.res.RecoveringPerEpoch = make([]int, cfg.Epochs)
	}

	st.tallies = make([]tally, len(cfg.Groups))
	if len(cfg.TrackAgents) > 0 {
		st.agentUnits = make(map[int]float64, len(cfg.TrackAgents))
		st.agentSprints = make(map[int]int, len(cfg.TrackAgents))
		for _, id := range cfg.TrackAgents {
			if id < 0 || id >= len(st.agents) {
				return nil, fmt.Errorf("sim: tracked agent %d out of range", id)
			}
			st.agentUnits[id] = 0
			st.agentSprints[id] = 0
		}
	}

	st.sprinting = make([]bool, len(st.agents))
	st.utilities = make([]float64, len(st.agents))
	st.holdUntil = make([]int, len(st.agents))
	st.recoveryExit = 1 - cfg.Game.Pr
	st.nMin, _ = cfg.Game.Trip.Bounds()

	st.epochCounter = cfg.Metrics.Counter("sim.epochs")
	st.tripCounter = cfg.Metrics.Counter("power.trips")
	st.recoveryCounter = cfg.Metrics.Counter("sim.recoveries")
	st.sprinterHist = cfg.Metrics.Histogram("sim.sprinters_per_epoch",
		telemetry.LinearBuckets(0, float64(cfg.Game.N)/10, 11))
	st.runSpan = cfg.Span.Child("sim.run")
	if st.runSpan != nil {
		st.classSprints = make([]int, len(cfg.Groups))
	}
	return st, nil
}

// step simulates one epoch: utility draws and sprint decisions, the
// breaker, task accounting, and state transitions. The caller must not
// step past cfg.Epochs.
func (st *runState) step() EpochStats {
	cfg, pol := st.cfg, st.pol
	epoch := st.completed
	epochSpan := st.runSpan.Child("sim.epoch")
	// Phase 1: utilities and sprint decisions.
	nS := 0
	nRecover := 0
	clear(st.classSprints)
	for i := range st.agents {
		a := &st.agents[i]
		st.utilities[i] = a.trace.Next()
		st.sprinting[i] = false
		switch a.state {
		case Active:
			if epoch >= st.holdUntil[i] && pol.Decide(policy.Context{
				AgentID: i, Class: a.class, Epoch: epoch, Utility: st.utilities[i],
			}) {
				st.sprinting[i] = true
				nS++
				if st.classSprints != nil {
					st.classSprints[a.group]++
				}
			}
		case Recovery:
			nRecover++
		}
	}

	// Phase 2: breaker.
	ptrip := cfg.Game.Trip.Ptrip(float64(nS))
	tripped := st.rackRNG.Bool(ptrip)
	if tripped {
		st.res.Trips++
		st.tripCounter.Inc()
	}
	st.epochCounter.Inc()
	st.sprinterHist.Observe(float64(nS))
	if cfg.RecordSeries {
		st.res.SprintersPerEpoch[epoch] = nS
		st.res.RecoveringPerEpoch[epoch] = nRecover
	}
	// Does the rack-wide recovery end after this epoch?
	recoveryEnds := st.rackRecovering && st.rackRNG.Bool(st.recoveryExit)
	if tripped {
		depth := 1.0
		if st.nMin > 0 && float64(nS) > st.nMin {
			depth = float64(nS) / st.nMin
		}
		st.recoveryExit = (1 - cfg.Game.Pr) / depth
	}
	if recoveryEnds {
		st.recoveryCounter.Inc()
	}

	// Phase 3: task accounting and state transitions.
	epochUnits := 0.0
	for i := range st.agents {
		a := &st.agents[i]
		ta := &st.tallies[a.group]
		units := 0.0
		switch {
		case st.sprinting[i]:
			// The UPS completes sprints in progress even on a trip.
			units = st.utilities[i]
			ta.sprint++
			ta.sprintUtil += st.utilities[i]
			ta.sprintCount++
		case a.state == Active:
			units = 1
			ta.activeIdle++
		case a.state == Cooling:
			units = 1
			ta.cool++
		default: // Recovery: rack sheds load while recharging.
			ta.recover++
		}
		ta.units += units
		epochUnits += units
		if st.agentUnits != nil {
			if _, ok := st.agentUnits[i]; ok {
				st.agentUnits[i] += units
				if st.sprinting[i] {
					st.agentSprints[i]++
				}
			}
		}

		// Transitions.
		if tripped {
			a.state = Recovery
			continue
		}
		switch {
		case st.sprinting[i]:
			a.state = Cooling
		case a.state == Cooling:
			if !st.rackRNG.Bool(cfg.Game.Pc) {
				a.state = Active
			}
		case a.state == Recovery:
			if recoveryEnds {
				a.state = Active
				st.holdUntil[i] = epoch + 1 + st.rackRNG.Intn(2)
				pol.WakeUp(i, epoch)
			}
		}
	}
	if tripped {
		st.rackRecovering = true
	} else if recoveryEnds {
		st.rackRecovering = false
	}
	pol.EpochEnd(epoch, nS, tripped)
	if epochSpan != nil {
		// Built behind the nil check so unspanned runs do not pay a
		// Fields allocation per epoch.
		byClass := make(map[string]int, len(cfg.Groups))
		for gi, g := range cfg.Groups {
			byClass[g.Class] = st.classSprints[gi]
		}
		fields := telemetry.Fields{
			"epoch":      epoch,
			"sprinters":  nS,
			"recovering": nRecover,
			"tripped":    tripped,
			"by_class":   byClass,
		}
		if tripped {
			fields["ptrip"] = ptrip
			fields["recovery_exit"] = st.recoveryExit
		}
		if recoveryEnds {
			fields["recovery_ended"] = true
		}
		epochSpan.EndWith(fields)
	}
	st.completed++
	exit := 0.0
	if st.rackRecovering {
		exit = st.recoveryExit
	}
	return EpochStats{
		Epoch:          epoch,
		Units:          epochUnits,
		Sprinters:      nS,
		Recovering:     nRecover,
		Tripped:        tripped,
		Ptrip:          ptrip,
		RackRecovering: st.rackRecovering,
		RecoveryExit:   exit,
	}
}

// finalize aggregates the completed epochs into the Result: completed
// equals cfg.Epochs for a full run, or the prefix length when stepping
// stopped early (a rack killed mid-run). A zero-epoch partial reports zero rates, not NaN.
func (st *runState) finalize() *Result {
	cfg, res, completed := st.cfg, st.res, st.completed
	res.Epochs = completed
	if cfg.RecordSeries && completed < cfg.Epochs {
		res.SprintersPerEpoch = res.SprintersPerEpoch[:completed]
		res.RecoveringPerEpoch = res.RecoveringPerEpoch[:completed]
	}
	var totUnits, totSprint, totIdle, totCool, totRecover float64
	for gi := range cfg.Groups {
		ta := st.tallies[gi]
		gr := &res.Groups[gi]
		if gEpochs := float64(cfg.Groups[gi].Count) * float64(completed); gEpochs > 0 {
			gr.TaskRate = ta.units / gEpochs
			gr.Shares = StateShares{
				Sprinting:  ta.sprint / gEpochs,
				ActiveIdle: ta.activeIdle / gEpochs,
				Cooling:    ta.cool / gEpochs,
				Recovery:   ta.recover / gEpochs,
			}
		}
		if ta.sprintCount > 0 {
			gr.MeanSprintUtility = ta.sprintUtil / ta.sprintCount
		}
		totUnits += ta.units
		totSprint += ta.sprint
		totIdle += ta.activeIdle
		totCool += ta.cool
		totRecover += ta.recover
	}
	if all := float64(cfg.Game.N) * float64(completed); all > 0 {
		res.TaskRate = totUnits / all
		res.Shares = StateShares{
			Sprinting:  totSprint / all,
			ActiveIdle: totIdle / all,
			Cooling:    totCool / all,
			Recovery:   totRecover / all,
		}
	}
	if st.agentUnits != nil {
		res.AgentRates = make(map[int]float64, len(st.agentUnits))
		for id, u := range st.agentUnits {
			if completed > 0 {
				res.AgentRates[id] = u / float64(completed)
			} else {
				res.AgentRates[id] = 0
			}
		}
		res.AgentSprints = st.agentSprints
	}
	cfg.Metrics.Gauge("sim.task_rate").Set(res.TaskRate)
	st.runSpan.EndWith(telemetry.Fields{
		"policy":    res.Policy,
		"epochs":    res.Epochs,
		"task_rate": res.TaskRate,
		"trips":     res.Trips,
	})
	return res
}

// Stepper runs a rack simulation one epoch at a time, yielding control
// (and live EpochStats) between epochs. It exists for serving mode:
// internal/route interleaves job arrivals and routing decisions with
// epoch execution, which a run-to-completion sim.Run cannot express —
// the batch-dispatch-then-run shape is exactly what makes load-aware
// routing degenerate. It is also the one way to stop a rack early: both
// internal/cluster and internal/route end a killed rack by not stepping
// it again and calling Finalize.
//
// A Stepper over a Config produces byte-identical per-epoch behaviour
// to sim.Run with the same Config (they share the epoch implementation
// and the RNG stream discipline); Finalize after k steps matches Run's
// Result with Epochs = k.
//
// A Stepper is not safe for concurrent use; the serving layer gives
// each rack its own.
type Stepper struct {
	st        *runState
	finalized bool
}

// NewStepper builds a ready-to-step simulation. The caller owns the
// epoch loop, so stopping a rack early is simply not calling Step again.
func NewStepper(cfg Config, pol policy.Policy) (*Stepper, error) {
	st, err := newRunState(cfg, pol)
	if err != nil {
		return nil, err
	}
	return &Stepper{st: st}, nil
}

// Completed returns the number of epochs stepped so far.
func (s *Stepper) Completed() int { return s.st.completed }

// Step simulates the next epoch and returns its stats. It errors once
// all Config.Epochs epochs have run or after Finalize.
func (s *Stepper) Step() (EpochStats, error) {
	if s.finalized {
		return EpochStats{}, errors.New("sim: Step after Finalize")
	}
	if s.st.completed >= s.st.cfg.Epochs {
		return EpochStats{}, fmt.Errorf("sim: all %d epochs already stepped", s.st.cfg.Epochs)
	}
	return s.st.step(), nil
}

// Finalize aggregates the stepped epochs into a Result, exactly as
// sim.Run would over the same prefix. The Stepper cannot step again
// afterwards; Finalize is idempotent.
func (s *Stepper) Finalize() *Result {
	if !s.finalized {
		s.finalized = true
		return s.st.finalize()
	}
	return s.st.res
}
