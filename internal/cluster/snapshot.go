package cluster

import (
	"sprintgame/internal/telemetry"
)

// RackSnapshot is a rack's live observable state: the one structure
// routing policies (internal/route), cluster.rack trace spans, and
// cmd/traceview all share. The serving layer rebuilds it every epoch
// from Stepper stats and queue bookkeeping; batch cluster runs emit a
// final snapshot per rack so queue depth and sprint pressure are
// visible outside the engine — the mock-study lesson that invisible
// observables make load-aware policies undebuggable.
type RackSnapshot struct {
	// Rack is the rack's index in Config.Racks.
	Rack int
	// Name is the rack's label.
	Name string
	// Alive is false once a fault has killed the rack; policies must
	// not route to dead racks (the engine enforces it).
	Alive bool
	// Epoch is the number of epochs the rack has completed.
	Epoch int
	// Agents is the rack's chip count.
	Agents int
	// QueueDepth is the number of jobs waiting on the rack (serving
	// mode; 0 in batch runs, which have no queues).
	QueueDepth int
	// BacklogUnits is the queued jobs' remaining task-unit demand.
	BacklogUnits float64
	// Sprinters is the sprint count of the last completed epoch.
	Sprinters int
	// Recovering is the number of agents that sat out the last epoch
	// in recovery.
	Recovering int
	// InRecovery reports a rack-wide battery recovery in progress.
	InRecovery bool
	// RecoveryExit is the per-epoch probability the current recovery
	// ends (0 when not recovering); 1/RecoveryExit is the expected
	// epochs until the rack produces units again.
	RecoveryExit float64
	// UPSCharge is a battery recharge proxy in (0, 1]: 1 when charged,
	// 1/depth during a recovery whose trip overloaded the breaker by
	// depth (deeper emergencies recharge more slowly, §2.2).
	UPSCharge float64
	// NMin, NMax are the rack breaker's trip bounds (Eq. 11): below
	// NMin sprinters the breaker never trips, above NMax it always
	// does. Sprint headroom is NMin - Sprinters.
	NMin, NMax float64
	// TripMargin is 1 - Ptrip at the last epoch's sprint count: the
	// probability the rack survives another epoch at its current
	// sprint pressure.
	TripMargin float64
	// RateUnits estimates the rack's near-term capacity in task units
	// per epoch (an EWMA of recent production in serving mode; the
	// run-wide mean in batch snapshots).
	RateUnits float64
}

// Fields renders the snapshot as a trace-event payload. Keys are
// stable: cmd/traceview and tests key off them.
func (s RackSnapshot) Fields() telemetry.Fields {
	return telemetry.Fields{
		"rack":          s.Rack,
		"name":          s.Name,
		"alive":         s.Alive,
		"epoch":         s.Epoch,
		"agents":        s.Agents,
		"queue_depth":   s.QueueDepth,
		"backlog_units": s.BacklogUnits,
		"sprinters":     s.Sprinters,
		"recovering":    s.Recovering,
		"in_recovery":   s.InRecovery,
		"recovery_exit": s.RecoveryExit,
		"ups_charge":    s.UPSCharge,
		"nmin":          s.NMin,
		"nmax":          s.NMax,
		"trip_margin":   s.TripMargin,
		"rate_units":    s.RateUnits,
	}
}

// Snapshot derives rack r's end-of-run snapshot from its result: the
// state a routing policy would have seen after the final epoch. Batch
// runs have no queues, so queue fields are zero; Sprinters comes from
// the recorded series when available.
func (c Config) Snapshot(r *RackResult) RackSnapshot {
	game := c.Game
	if spec := c.Racks[r.Rack].Game; spec != nil {
		game = *spec
	}
	nMin, nMax := game.Trip.Bounds()
	s := RackSnapshot{
		Rack:      r.Rack,
		Name:      r.Name,
		Alive:     true,
		Epoch:     r.Sim.Epochs,
		Agents:    r.Agents,
		UPSCharge: 1,
		NMin:      nMin,
		NMax:      nMax,
		RateUnits: r.Sim.TaskRate * float64(r.Agents),
	}
	if n := len(r.Sim.SprintersPerEpoch); n > 0 {
		s.Sprinters = r.Sim.SprintersPerEpoch[n-1]
		s.Recovering = r.Sim.RecoveringPerEpoch[n-1]
	}
	s.TripMargin = 1 - game.Trip.Ptrip(float64(s.Sprinters))
	return s
}
