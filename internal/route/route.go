// Package route is the cluster's serving layer: an event-driven loop in
// which jobs arrive *during* simulation and a routing policy assigns
// each one to a rack using live per-rack state.
//
// The batch engine (internal/cluster) answers "what does this
// datacenter produce?"; route answers "how does it serve?". Arrival
// processes (Poisson, diurnal/bursty, recorded-trace replay) inject
// jobs each epoch; a Policy picks a rack per job from the racks'
// current cluster.RackSnapshots — queue depth, backlog, sprint
// pressure, breaker trip margin, recovery state, liveness — and
// per-rack FIFO queues drain at whatever task rate each rack's
// sprinting game actually produces that epoch.
//
// Routing decisions happen inside the epoch loop, interleaved with
// simulation, never batched up front. The inference-sim mock study that
// shaped this design found that dispatch-then-run made every load-aware
// policy degenerate — least-loaded ran 3.5x WORSE than round-robin,
// because the load signal was frozen at dispatch time. Policies here
// see the effect of their own dispatches within the same epoch.
//
// # Determinism
//
// Serving runs are byte-identical for every Config.Cluster.Workers
// value, including under an active cluster.FaultPlan:
//
//   - each rack steps its own sim.Stepper on its own RNG stream
//     (cluster.MixSeed discipline). A rack's epochs depend on its
//     agents' draws and its breaker, never on routing, so the racks
//     step in parallel, up to a fixed number of epochs ahead of the
//     dispatcher, which takes their epochs in rack-index order;
//   - arrivals draw from a dedicated stream, MixSeed(BaseSeed, -3),
//     that no rack uses;
//   - dispatch and queue drain are single-threaded, in arrival order
//     and rack-index order respectively;
//   - telemetry is emitted from the single-threaded sections only, and
//     span trees derive their IDs from MixSeed(BaseSeed, -4).
package route

import (
	"fmt"

	"sprintgame/internal/cluster"
	"sprintgame/internal/stats"
)

// Job is one unit of arriving work: a demand of Units task units that
// some rack must produce. Units are the simulator's currency (one
// normal-mode agent-epoch == 1 unit), so a rack of A chips retires
// roughly A units per epoch when healthy.
type Job struct {
	// ID is the job's arrival sequence number, assigned by the engine.
	ID int
	// Epoch is the arrival epoch.
	Epoch int
	// Units is the job's task-unit demand (> 0).
	Units float64
}

// Policy picks a rack for each arriving job. Pick is called once per
// job, in arrival order, from a single goroutine; implementations may
// keep state (round-robin cursors, RNG streams) without locking.
//
// racks[i] is rack i's live snapshot, updated for dispatches earlier in
// the same epoch — QueueDepth and BacklogUnits already include them, so
// load-aware policies spread bursts instead of dogpiling the emptiest
// rack. Snapshots for dead racks have Alive == false; Pick must return
// an alive rack's index. The engine rejects picks of dead racks rather
// than silently rerouting: a policy that routes to a corpse is a bug.
//
// racks is the engine's live state, not a copy: Pick must treat it as
// read-only and must not retain it past the call, since the engine
// updates the entries in place as jobs dispatch and racks step.
type Policy interface {
	// Name identifies the policy in results and benchmarks.
	Name() string
	// Pick returns the index of the rack to queue job on. At least one
	// rack is alive when Pick is called.
	Pick(job Job, racks []cluster.RackSnapshot) int
}

// RoundRobin cycles through alive racks in index order, restarting
// after the rack it last picked. The baseline every load-aware policy
// must beat.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a round-robin policy starting at rack 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy: the next alive rack in cyclic index order.
func (p *RoundRobin) Pick(_ Job, racks []cluster.RackSnapshot) int {
	for off := 0; off < len(racks); off++ {
		i := (p.next + off) % len(racks)
		if racks[i].Alive {
			p.next = i + 1
			return i
		}
	}
	return -1 // unreachable: the engine guarantees an alive rack
}

// Random picks uniformly among alive racks from its own deterministic
// stream.
type Random struct {
	rng *stats.RNG
}

// NewRandom returns a random policy drawing from the given seed.
func NewRandom(seed uint64) *Random { return &Random{rng: stats.NewRNG(seed)} }

// Name implements Policy.
func (p *Random) Name() string { return "random" }

// Pick implements Policy.
func (p *Random) Pick(_ Job, racks []cluster.RackSnapshot) int {
	alive := 0
	for i := range racks {
		if racks[i].Alive {
			alive++
		}
	}
	k := p.rng.Intn(alive)
	for i := range racks {
		if racks[i].Alive {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

// LeastLoaded picks the alive rack with the smallest expected wait:
// backlog (including this job) divided by the rack's recent production
// rate. Ties break toward the lowest index, keeping the policy
// deterministic.
type LeastLoaded struct{}

// NewLeastLoaded returns a least-loaded policy.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Policy.
func (p *LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Policy.
func (p *LeastLoaded) Pick(job Job, racks []cluster.RackSnapshot) int {
	best, bestScore := -1, 0.0
	for i := range racks {
		if !racks[i].Alive {
			continue
		}
		score := expectedWait(job, &racks[i])
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// sprintAwareTripWeight converts breaker trip probability into expected
// delay: a trip costs the rack a recovery, whose expected length at the
// paper's pr is a handful of epochs, so trip risk is charged at that
// scale.
const sprintAwareTripWeight = 5.0

// SprintAware extends least-loaded with the sprinting game's power
// state: racks mid-recovery are charged their expected recovery length
// (1/RecoveryExit epochs of zero production), and racks sprinting close
// to the breaker's trip region are charged their trip probability times
// an expected recovery cost. It is the policy that actually reads the
// snapshot fields the sprinting game exposes — headroom, trip margin,
// UPS charge — rather than queue length alone.
type SprintAware struct{}

// NewSprintAware returns a sprint-aware policy.
func NewSprintAware() *SprintAware { return &SprintAware{} }

// Name implements Policy.
func (p *SprintAware) Name() string { return "sprint-aware" }

// Pick implements Policy.
func (p *SprintAware) Pick(job Job, racks []cluster.RackSnapshot) int {
	best, bestScore := -1, 0.0
	for i := range racks {
		s := &racks[i]
		if !s.Alive {
			continue
		}
		score := expectedWait(job, s)
		if s.InRecovery {
			// Expected epochs before the rack produces units again.
			exit := s.RecoveryExit
			if exit < 0.01 {
				exit = 0.01
			}
			score += 1 / exit
		} else {
			// Trip risk: probability the rack's current sprint pressure
			// trips the breaker, scaled to a recovery's expected cost.
			score += (1 - s.TripMargin) * sprintAwareTripWeight
		}
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// expectedWait estimates the epochs until job would complete on the
// rack: queued backlog plus the job itself, over the rack's recent
// production rate.
func expectedWait(job Job, s *cluster.RackSnapshot) float64 {
	rate := s.RateUnits
	if rate < 1e-9 {
		// A rack producing nothing (deep recovery) is effectively
		// infinite wait; keep the score finite but dominant.
		rate = 1e-9
	}
	return (s.BacklogUnits + job.Units) / rate
}

// PolicyNames lists the shipped routing policies in shootout order.
func PolicyNames() []string {
	return []string{"round-robin", "random", "least-loaded", "sprint-aware"}
}

// ByName builds a shipped policy. seed feeds stochastic policies
// (random); deterministic policies ignore it.
func ByName(name string, seed uint64) (Policy, error) {
	switch name {
	case "round-robin", "roundrobin", "rr":
		return NewRoundRobin(), nil
	case "random":
		return NewRandom(seed), nil
	case "least-loaded", "leastloaded", "ll":
		return NewLeastLoaded(), nil
	case "sprint-aware", "sprintaware", "sa":
		return NewSprintAware(), nil
	default:
		return nil, fmt.Errorf("route: unknown policy %q (have %v)", name, PolicyNames())
	}
}
