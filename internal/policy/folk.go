package policy

import (
	"errors"
	"fmt"
	"math"
)

// This file implements the §6.4 machinery: deviation from an assigned
// strategy, and the coordinator's enforcement responses under the Folk
// theorem — monitoring sprints, detecting deviators, and punishing them.

// Override runs Special for the listed agents and Base for everyone
// else. It models a deviant minority inside a population playing an
// assigned strategy.
type Override struct {
	Base    Policy
	Special Policy
	// SpecialIDs selects the agents routed to Special.
	SpecialIDs map[int]bool
}

// NewOverride builds an Override policy.
func NewOverride(base, special Policy, ids ...int) (*Override, error) {
	if base == nil || special == nil {
		return nil, errors.New("policy: override needs both policies")
	}
	m := make(map[int]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return &Override{Base: base, Special: special, SpecialIDs: m}, nil
}

// Name implements Policy.
func (o *Override) Name() string {
	return fmt.Sprintf("%s+deviant(%s)", o.Base.Name(), o.Special.Name())
}

// Decide implements Policy.
func (o *Override) Decide(ctx Context) bool {
	if o.SpecialIDs[ctx.AgentID] {
		return o.Special.Decide(ctx)
	}
	return o.Base.Decide(ctx)
}

// EpochEnd implements Policy: both constituents observe outcomes.
func (o *Override) EpochEnd(epoch, sprinters int, tripped bool) {
	o.Base.EpochEnd(epoch, sprinters, tripped)
	o.Special.EpochEnd(epoch, sprinters, tripped)
}

// WakeUp implements Policy.
func (o *Override) WakeUp(agentID, epoch int) {
	if o.SpecialIDs[agentID] {
		o.Special.WakeUp(agentID, epoch)
		return
	}
	o.Base.WakeUp(agentID, epoch)
}

// Monitor wraps a policy with the coordinator's deviation detector
// (§6.4): it counts each agent's sprints and permanently bans any agent
// whose cumulative sprint count exceeds a concentration bound around the
// expected rate. "The coordinator could monitor sprints, detect
// deviations from assigned strategies, and forbid agents who deviate
// from ever sprinting again."
type Monitor struct {
	inner Policy
	// expectedShare is the per-epoch sprint share an obedient agent
	// exhibits (ps * pA from the assigned strategy).
	expectedShare float64
	// z is the detection strictness: an agent is banned when her sprint
	// count exceeds mean + z standard deviations of the obedient
	// binomial. Large z avoids punishing honest agents; deviators are
	// still caught because their excess grows linearly with time.
	z float64
	// warmup is the number of epochs before enforcement begins.
	warmup int

	sprints map[int]int
	banned  map[int]bool
}

// NewMonitor wraps inner with deviation detection. expectedShare is the
// obedient per-epoch sprint share; z is the number of binomial standard
// deviations tolerated (4-5 keeps false positives negligible); warmup
// delays enforcement until counts are informative.
func NewMonitor(inner Policy, expectedShare, z float64, warmup int) (*Monitor, error) {
	if inner == nil {
		return nil, errors.New("policy: monitor needs a policy")
	}
	if expectedShare < 0 || expectedShare > 1 {
		return nil, fmt.Errorf("policy: expected share %v is not a probability", expectedShare)
	}
	if z <= 0 {
		return nil, fmt.Errorf("policy: z %v must be positive", z)
	}
	if warmup < 1 {
		return nil, errors.New("policy: warmup must be at least one epoch")
	}
	return &Monitor{
		inner:         inner,
		expectedShare: expectedShare,
		z:             z,
		warmup:        warmup,
		sprints:       make(map[int]int),
		banned:        make(map[int]bool),
	}, nil
}

// Name implements Policy.
func (m *Monitor) Name() string { return m.inner.Name() + "+monitor" }

// BannedCount returns the number of banned agents.
func (m *Monitor) BannedCount() int { return len(m.banned) }

// banBound returns the maximum sprint count tolerated after `epochs`
// epochs: the binomial mean plus z standard deviations.
func (m *Monitor) banBound(epochs float64) float64 {
	mean := m.expectedShare * epochs
	sd := math.Sqrt(m.expectedShare * (1 - m.expectedShare) * epochs)
	return mean + m.z*sd
}

// Decide implements Policy: banned agents never sprint; others follow
// the inner policy, with their sprints recorded.
func (m *Monitor) Decide(ctx Context) bool {
	if m.banned[ctx.AgentID] {
		return false
	}
	sprint := m.inner.Decide(ctx)
	if sprint {
		m.sprints[ctx.AgentID]++
		if ctx.Epoch >= m.warmup &&
			float64(m.sprints[ctx.AgentID]) > m.banBound(float64(ctx.Epoch+1)) {
			m.banned[ctx.AgentID] = true
			return false // the detected sprint is denied
		}
	}
	return sprint
}

// EpochEnd implements Policy.
func (m *Monitor) EpochEnd(epoch, sprinters int, tripped bool) {
	m.inner.EpochEnd(epoch, sprinters, tripped)
}

// WakeUp implements Policy.
func (m *Monitor) WakeUp(agentID, epoch int) { m.inner.WakeUp(agentID, epoch) }
