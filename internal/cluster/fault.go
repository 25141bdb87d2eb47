package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"sprintgame/internal/sim"
	"sprintgame/internal/stats"
)

// FaultPlan deterministically injects rack failures into a cluster run.
// The schedule — which racks die, and at which epoch — is resolved
// before any rack starts, from Config.BaseSeed alone, so it is
// independent of Config.Workers and of the racks' own RNG streams: a
// run with faults is byte-identical for every pool size.
type FaultPlan struct {
	// Kills maps rack index -> kill epoch: the rack stops immediately
	// before simulating that epoch, so its partial result covers exactly
	// that many epochs.
	Kills map[int]int
	// Rate additionally selects each rack for a kill with this
	// probability, at a uniformly drawn epoch. Draws come from a
	// dedicated stream derived from Config.BaseSeed (disjoint from all
	// rack seeds), in rack-index order.
	Rate float64
	// Transient marks injected faults restartable: retry attempts
	// (Config.MaxRetries) run without the fault and can complete the
	// rack. Non-transient faults re-fire on every attempt, so the rack
	// fails permanently once retries are exhausted.
	Transient bool
}

// Active reports whether the plan can kill any rack. Safe on nil.
func (p *FaultPlan) Active() bool {
	return p != nil && (p.Rate > 0 || len(p.Kills) > 0)
}

// validate checks the plan against the cluster shape.
func (p *FaultPlan) validate(racks, epochs int) error {
	if p.Rate < 0 || p.Rate > 1 {
		return fmt.Errorf("cluster: fault rate %v outside [0, 1]", p.Rate)
	}
	for r, e := range p.Kills {
		if r < 0 || r >= racks {
			return fmt.Errorf("cluster: fault kill for rack %d, cluster has %d racks", r, racks)
		}
		if e < 0 || e >= epochs {
			return fmt.Errorf("cluster: fault kill for rack %d at epoch %d outside [0, %d)", r, e, epochs)
		}
	}
	return nil
}

// Schedule resolves the kill epoch for every rack (-1 = no kill).
// Explicit Kills win; Rate-selected kills draw from a stream seeded by
// mixSeed(baseSeed, -1), which no rack uses (rack i's derived seed is
// mixSeed(baseSeed, i) with i >= 0). The schedule depends only on the
// base seed and the cluster shape, never on Workers — both the batch
// engine and the serving layer (internal/route) resolve it up front.
func (p *FaultPlan) Schedule(baseSeed uint64, racks, epochs int) []int {
	kills := make([]int, racks)
	for i := range kills {
		kills[i] = -1
	}
	if !p.Active() {
		return kills
	}
	var rng *stats.RNG
	if p.Rate > 0 {
		rng = stats.NewRNG(mixSeed(baseSeed, -1))
	}
	for i := range kills {
		if rng != nil && rng.Bool(p.Rate) {
			kills[i] = rng.Intn(epochs)
		}
		if e, ok := p.Kills[i]; ok {
			kills[i] = e
		}
	}
	return kills
}

// ParseFaultPlan parses cmd/cluster's -faults spec: either a single
// probability in [0, 1] ("0.25") applied to every rack, or
// comma-separated rack@epoch pairs ("3@100,7@250").
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("cluster: empty fault spec")
	}
	if !strings.Contains(spec, "@") {
		rate, err := strconv.ParseFloat(spec, 64)
		if err != nil || rate < 0 || rate > 1 {
			return nil, fmt.Errorf("cluster: fault spec %q is neither a rate in [0, 1] nor rack@epoch pairs", spec)
		}
		return &FaultPlan{Rate: rate}, nil
	}
	kills := make(map[int]int)
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		rackStr, epochStr, ok := strings.Cut(pair, "@")
		if !ok {
			return nil, fmt.Errorf("cluster: fault pair %q is not rack@epoch", pair)
		}
		rack, err := strconv.Atoi(rackStr)
		if err != nil || rack < 0 {
			return nil, fmt.Errorf("cluster: fault pair %q has a bad rack index", pair)
		}
		epoch, err := strconv.Atoi(epochStr)
		if err != nil || epoch < 0 {
			return nil, fmt.Errorf("cluster: fault pair %q has a bad epoch", pair)
		}
		kills[rack] = epoch
	}
	return &FaultPlan{Kills: kills}, nil
}

// RackFault is the cause injected by a FaultPlan kill; it surfaces to
// callers as the Err of a RackError, in the batch engine and the
// serving layer alike.
type RackFault struct {
	// Rack is the killed rack's index.
	Rack int
	// Epoch is the epoch the kill fired at.
	Epoch int
}

func (f *RackFault) Error() string {
	return fmt.Sprintf("injected fault: rack %d killed at epoch %d", f.Rack, f.Epoch)
}

// RackError describes one rack's failure within a cluster run. With
// Config.AllowPartial the Result carries every RackError in Failed (in
// rack-index order); otherwise Run joins them all via errors.Join.
type RackError struct {
	// Rack is the failed rack's index in Config.Racks.
	Rack int
	// Name is the rack's label.
	Name string
	// Epoch is the number of epochs the final attempt completed before
	// failing; -1 when the rack never started (policy construction or
	// configuration failure).
	Epoch int
	// Attempts is the number of attempts made (1 = no retry).
	Attempts int
	// Err is the final attempt's underlying error.
	Err error
	// Partial is the final attempt's partial result when the rack died
	// mid-run (nil when it never started). Its aggregates and series
	// cover exactly Epoch epochs; it is excluded from cluster
	// aggregation.
	Partial *sim.Result
}

func (e *RackError) Error() string {
	if e.Epoch < 0 {
		return fmt.Sprintf("cluster: rack %d (%s): attempt %d: %v", e.Rack, e.Name, e.Attempts, e.Err)
	}
	return fmt.Sprintf("cluster: rack %d (%s): attempt %d failed after %d epochs: %v",
		e.Rack, e.Name, e.Attempts, e.Epoch, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is / errors.As.
func (e *RackError) Unwrap() error { return e.Err }

// retrySeed derives the RNG seed for retry attempt k (k >= 1) of a
// rack, giving every attempt a fresh stream decorrelated from the
// first attempt's seed and from other racks.
func retrySeed(seed uint64, attempt int) uint64 {
	return mixSeed(seed^0x7e57ab1e, attempt)
}
