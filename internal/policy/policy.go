// Package policy implements the sprinting policies compared in §6 of the
// paper: Greedy (G), Exponential Backoff (E-B), Cooperative Threshold
// (C-T), and Equilibrium Threshold (E-T). Policies decide, for each
// active agent in each epoch, whether to sprint; the rack simulator in
// package sim enforces cooling and recovery.
package policy

import (
	"fmt"

	"sprintgame/internal/stats"
)

// Decision context for one agent-epoch.
type Context struct {
	// AgentID identifies the agent within the rack.
	AgentID int
	// Class is the agent's application class name.
	Class string
	// Epoch is the current epoch index.
	Epoch int
	// Utility is the agent's estimated utility from sprinting in this
	// epoch (normalized TPS gain).
	Utility float64
}

// Policy decides sprints and observes system events. Implementations may
// keep per-agent and global state; the simulator calls them from a single
// goroutine.
type Policy interface {
	// Name returns the policy's short name for reports.
	Name() string
	// Decide reports whether the agent should sprint. It is called only
	// for agents that are able to sprint (active, rack not recovering).
	Decide(ctx Context) bool
	// EpochEnd informs the policy of the epoch's outcome.
	EpochEnd(epoch int, sprinters int, tripped bool)
	// WakeUp informs the policy that an agent has left the recovery
	// state and will be active from the next epoch.
	WakeUp(agentID, epoch int)
}

// Greedy sprints at every opportunity (§6, "permits agents to sprint as
// long as the chip is not cooling and the rack is not recovering").
// Post-recovery wake-ups are staggered across two epochs by the rack
// itself (a dI/dt mechanism enforced by the simulator for every policy,
// §2.2), so the policy needs no state of its own.
type Greedy struct{}

// NewGreedy returns the Greedy policy. The seed parameter is accepted for
// interface symmetry with the stochastic policies and ignored.
func NewGreedy(uint64) *Greedy { return &Greedy{} }

// Name implements Policy.
func (g *Greedy) Name() string { return "greedy" }

// Decide implements Policy: always sprint.
func (g *Greedy) Decide(Context) bool { return true }

// EpochEnd implements Policy.
func (g *Greedy) EpochEnd(int, int, bool) {}

// WakeUp implements Policy.
func (g *Greedy) WakeUp(int, int) {}

// ExponentialBackoff throttles sprinting in response to power
// emergencies, exactly as §6 describes: agents sprint greedily until the
// breaker trips; after the t-th trip each agent waits a random number of
// epochs drawn from [0, 2^t - 1] before sprinting again; the waiting
// interval contracts by half if the breaker has not tripped in the past
// 100 epochs.
type ExponentialBackoff struct {
	rng *stats.RNG
	// level is the current backoff exponent t.
	level int
	// quietSince is the epoch from which the trip-free interval is
	// measured for window contraction.
	quietSince int
	// nextAllowed[agent] is the first epoch the agent may sprint again.
	nextAllowed map[int]int
	// maxLevel caps the window at 2^maxLevel epochs.
	maxLevel int
}

// NewExponentialBackoff returns an E-B policy.
func NewExponentialBackoff(seed uint64) *ExponentialBackoff {
	return &ExponentialBackoff{
		rng:         stats.NewRNG(seed),
		nextAllowed: make(map[int]int),
		maxLevel:    10,
	}
}

// Name implements Policy.
func (e *ExponentialBackoff) Name() string { return "exponential-backoff" }

// window returns the current waiting window size 2^t, capped.
func (e *ExponentialBackoff) window() int {
	t := e.level
	if t > e.maxLevel {
		t = e.maxLevel
	}
	return 1 << uint(t)
}

// Decide implements Policy: sprint greedily unless inside the post-trip
// wait.
func (e *ExponentialBackoff) Decide(ctx Context) bool {
	return ctx.Epoch >= e.nextAllowed[ctx.AgentID]
}

// EpochEnd implements Policy: raise the backoff level on a trip, contract
// the window after 100 quiet epochs.
func (e *ExponentialBackoff) EpochEnd(epoch int, _ int, tripped bool) {
	if tripped {
		if e.level < e.maxLevel {
			e.level++
		}
		e.quietSince = epoch
		return
	}
	if e.level > 0 && epoch-e.quietSince >= 100 {
		e.level--
		e.quietSince = epoch
	}
}

// WakeUp implements Policy: an agent returning from the post-trip
// recovery draws her wait from the current window.
func (e *ExponentialBackoff) WakeUp(agentID, epoch int) {
	if w := e.window(); w > 1 {
		e.nextAllowed[agentID] = epoch + 1 + e.rng.Intn(w)
	}
}

// Threshold sprints when an epoch's utility exceeds the agent's assigned
// threshold. With equilibrium thresholds from Algorithm 1 this is the
// paper's E-T policy; with globally optimized thresholds it is C-T.
type Threshold struct {
	// label distinguishes "equilibrium-threshold" from
	// "cooperative-threshold" in reports.
	label string
	// byClass maps an application class to its threshold.
	byClass map[string]float64
}

// NewThreshold builds a threshold policy from per-class thresholds.
func NewThreshold(label string, byClass map[string]float64) (*Threshold, error) {
	if label == "" {
		return nil, fmt.Errorf("policy: threshold policy needs a label")
	}
	if len(byClass) == 0 {
		return nil, fmt.Errorf("policy: threshold policy needs thresholds")
	}
	m := make(map[string]float64, len(byClass))
	for k, v := range byClass {
		m[k] = v
	}
	return &Threshold{label: label, byClass: m}, nil
}

// Name implements Policy.
func (t *Threshold) Name() string { return t.label }

// Decide implements Policy: sprint iff utility exceeds the class
// threshold. Unknown classes never sprint (fail safe).
func (t *Threshold) Decide(ctx Context) bool {
	th, ok := t.byClass[ctx.Class]
	if !ok {
		return false
	}
	return ctx.Utility > th
}

// EpochEnd implements Policy.
func (t *Threshold) EpochEnd(int, int, bool) {}

// WakeUp implements Policy.
func (t *Threshold) WakeUp(int, int) {}

// Never is a baseline that never sprints; it measures normal-mode
// throughput.
type Never struct{}

// Name implements Policy.
func (Never) Name() string { return "never" }

// Decide implements Policy.
func (Never) Decide(Context) bool { return false }

// EpochEnd implements Policy.
func (Never) EpochEnd(int, int, bool) {}

// WakeUp implements Policy.
func (Never) WakeUp(int, int) {}

// Predictive is a threshold policy whose decisions use a per-agent EWMA
// prediction of the epoch's utility instead of the true value — the
// realistic online setting of §4.4, where an agent estimates a sprint's
// benefit from recent history and hardware counters rather than
// observing it in advance. The realized utility is fed back after each
// decision. The embedded Threshold supplies the label, the class table
// and the no-op hooks.
type Predictive struct {
	*Threshold
	alpha     float64
	estimates map[int]float64
}

// NewPredictive builds the policy from per-class thresholds and an EWMA
// smoothing factor alpha in (0, 1].
func NewPredictive(label string, byClass map[string]float64, alpha float64) (*Predictive, error) {
	t, err := NewThreshold(label, byClass)
	if err != nil {
		return nil, err
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("policy: alpha %v outside (0, 1]", alpha)
	}
	return &Predictive{Threshold: t, alpha: alpha, estimates: make(map[int]float64)}, nil
}

// Decide implements Policy: compare the prediction (last EWMA estimate)
// against the class threshold, then fold the epoch's realized utility
// into the estimate. The first observed epoch primes the predictor and
// is never a sprint.
func (p *Predictive) Decide(ctx Context) bool {
	th, ok := p.byClass[ctx.Class]
	if !ok {
		return false
	}
	est, primed := p.estimates[ctx.AgentID]
	sprint := primed && est > th
	if !primed {
		p.estimates[ctx.AgentID] = ctx.Utility
	} else {
		p.estimates[ctx.AgentID] = p.alpha*ctx.Utility + (1-p.alpha)*est
	}
	return sprint
}
