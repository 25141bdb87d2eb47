package core

import (
	"errors"
	"fmt"
	"math"

	"sprintgame/internal/dist"
	"sprintgame/internal/telemetry"
)

// Batched equilibrium solving. A single FindEquilibrium call spends a
// growing share of its time on per-solve setup — validation, prefix-sum
// fetches through method calls, per-class bookkeeping — now that the
// crossover kernel has pushed the per-sweep cost to O(log n)
// (BENCH_core.json). SolveBatch amortizes that setup across many game
// instances: the inner Bellman solves of every instance are packed into
// a structure-of-arrays lane layout, lanes are grouped by utility
// density, and one pass over each density's shared prefix-sum columns
// advances every lane on it. Cluster presolve uses this to solve a
// fleet's distinct racks in one pass; cmd/experiments uses it for
// multi-instance sweeps.
//
// The batch is a pure scheduling change: each lane performs exactly the
// arithmetic of the serial path, in the same order, so SolveBatch
// results are byte-identical to calling FindEquilibrium per request
// (pinned by differential tests).

// SolveRequest is one game instance of a batch: the arguments of one
// FindEquilibriumWarm call. Warm, when non-nil, seeds the instance's
// Algorithm 1 from a previous solution (e.g. a cached neighbour's
// equilibrium) exactly as FindEquilibriumWarm would; nil lanes
// cold-start from Ptrip = 1. Warm and cold lanes mix freely in one
// batch — each lane's trajectory matches its serial counterpart.
type SolveRequest struct {
	Classes []AgentClass
	Cfg     Config
	Warm    *WarmStart
}

// BatchResult pairs one request's equilibrium with its error; exactly
// one of the two is set, mirroring FindEquilibrium's return.
type BatchResult struct {
	Eq  *Equilibrium
	Err error
}

// bellmanLanes is the batched value-iteration state in structure-of-
// arrays layout: index i across every slice describes lane i, one
// Bellman solve of (density, ptrip) under an instance's Config. The
// sweep loop walks the active lanes of one density group touching only
// these parallel arrays plus the density's shared prefix-sum columns.
type bellmanLanes struct {
	f     []*dist.Discrete
	ptrip []float64
	// Per-lane Config extracts (instances in one batch may differ).
	delta, pc, pr, tol []float64
	maxIter            []int
	scan               []bool
	// Value-iteration state and results.
	vA, vC, vR []float64
	iters      []int
	errs       []error

	// groups[i] lists the lane indices sharing the i-th distinct
	// density, in first-seen order.
	groups [][]int
	byF    map[*dist.Discrete]int
}

// reset clears the lanes for the next outer iteration, keeping the
// backing arrays.
func (b *bellmanLanes) reset() {
	b.f = b.f[:0]
	b.ptrip = b.ptrip[:0]
	b.delta = b.delta[:0]
	b.pc = b.pc[:0]
	b.pr = b.pr[:0]
	b.tol = b.tol[:0]
	b.maxIter = b.maxIter[:0]
	b.scan = b.scan[:0]
	b.vA = b.vA[:0]
	b.vC = b.vC[:0]
	b.vR = b.vR[:0]
	b.iters = b.iters[:0]
	b.errs = b.errs[:0]
	b.groups = b.groups[:0]
	if b.byF == nil {
		b.byF = make(map[*dist.Discrete]int)
	} else {
		clear(b.byF)
	}
}

// add appends one lane, seeded from guess, and files it under its
// density's group. Returns the lane index.
func (b *bellmanLanes) add(f *dist.Discrete, ptrip float64, cfg Config, guess Values) int {
	i := len(b.f)
	b.f = append(b.f, f)
	b.ptrip = append(b.ptrip, ptrip)
	b.delta = append(b.delta, cfg.Delta)
	b.pc = append(b.pc, cfg.Pc)
	b.pr = append(b.pr, cfg.Pr)
	b.tol = append(b.tol, cfg.ValueTol)
	b.maxIter = append(b.maxIter, cfg.MaxValueIter)
	b.scan = append(b.scan, cfg.Kernel == KernelScan)
	b.vA = append(b.vA, guess.VA)
	b.vC = append(b.vC, guess.VC)
	b.vR = append(b.vR, guess.VR)
	b.iters = append(b.iters, 0)
	b.errs = append(b.errs, nil)
	g, ok := b.byF[f]
	if !ok {
		g = len(b.groups)
		b.groups = append(b.groups, nil)
		b.byF[f] = g
	}
	b.groups[g] = append(b.groups[g], i)
	return i
}

// solve runs value iteration for every lane. Lanes are grouped by
// density; within a group, each pass advances all still-active lanes by
// one sweep against the group's hoisted kernel view, so the sorted
// support and both prefix-sum columns are fetched once per group rather
// than once per lane per sweep. Lanes converge (and freeze)
// independently, which keeps every lane's arithmetic identical to a
// standalone solveBellman call.
func (b *bellmanLanes) solve() {
	for _, group := range b.groups {
		b.solveGroup(group)
	}
}

func (b *bellmanLanes) solveGroup(lanes []int) {
	f := b.f[lanes[0]]
	if f == nil || f.Len() == 0 {
		err := errors.New("core: empty utility density")
		for _, i := range lanes {
			b.errs[i] = err
		}
		return
	}
	// Reject invalid ptrips up front (same message as solveBellman) and
	// keep only runnable lanes active.
	active := make([]int, 0, len(lanes))
	for _, i := range lanes {
		if p := b.ptrip[i]; p < 0 || p > 1 {
			b.errs[i] = fmt.Errorf("core: ptrip = %v is not a probability", p)
			continue
		}
		active = append(active, i)
	}
	xs, ps, cumP, cumPX := f.KernelView()
	n := len(xs)
	// Hoist the SoA columns out of the sweep loop: the per-lane state is
	// then flat array indexing with no repeated struct loads.
	vAs, vCs, vRs := b.vA, b.vC, b.vR
	deltas, ptrips, pcs, prs := b.delta, b.ptrip, b.pc, b.pr
	tols, iters, maxIters := b.tol, b.iters, b.maxIter
	for len(active) > 0 {
		// One sweep per active lane; compact converged/failed lanes out.
		live := active[:0]
		for _, i := range active {
			d, ptrip := deltas[i], ptrips[i]
			vA, vC, vR := vAs[i], vCs[i], vRs[i]
			// Eqs. (2)-(3): the utility-independent continuation values.
			vNoSprint := d * (vA*(1-ptrip) + vR*ptrip)
			sprintCont := d * (vC*(1-ptrip) + vR*ptrip)
			// Eq. (4) through the shared prefix sums (kernel.go), or the
			// reference scan when the lane's Config asks for it.
			var newVA float64
			if b.scan[i] {
				newVA = sweepScan(xs, ps, sprintCont, vNoSprint)
			} else {
				// Inlined sort.SearchFloat64s: the closure-based probe is a
				// per-sweep function call the lane loop cannot afford.
				target := vNoSprint - sprintCont
				lo, hi := 0, n
				for lo < hi {
					mid := int(uint(lo+hi) >> 1)
					if xs[mid] < target {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				k := lo
				newVA = cumP[k]*vNoSprint + (cumPX[n] - cumPX[k]) + (cumP[n]-cumP[k])*sprintCont
			}
			// Eqs. (5) and (6).
			newVC := d*(vC*pcs[i]+vA*(1-pcs[i]))*(1-ptrip) + d*vR*ptrip
			newVR := d * (vR*prs[i] + vA*(1-prs[i]))
			// Branchy max, matching solveBellman (math.Max is a call).
			diff := math.Abs(newVA - vA)
			if d2 := math.Abs(newVC - vC); d2 > diff {
				diff = d2
			}
			if d2 := math.Abs(newVR - vR); d2 > diff {
				diff = d2
			}
			vAs[i], vCs[i], vRs[i] = newVA, newVC, newVR
			iters[i]++
			if iters[i] >= maxIters[i] {
				// Matches solveBellman exactly: reaching the sweep cap is a
				// failure even when the final sweep met tolerance.
				b.errs[i] = errors.New("core: value iteration did not converge")
				continue
			}
			if diff < tols[i] {
				continue // converged: freeze the lane
			}
			live = append(live, i)
		}
		active = live
	}
}

// values extracts lane i's converged dynamic program.
func (b *bellmanLanes) values(i int) Values {
	d, ptrip := b.delta[i], b.ptrip[i]
	return Values{
		VA:         b.vA[i],
		VC:         b.vC[i],
		VR:         b.vR[i],
		Threshold:  d * (b.vA[i] - b.vC[i]) * (1 - ptrip),
		Ptrip:      ptrip,
		Iterations: b.iters[i],
	}
}

// batchInstance is one request's Algorithm 1 state between lockstep
// outer iterations.
type batchInstance struct {
	idx     int // index into the request/result slices
	classes []AgentClass
	cfg     Config
	eq      *Equilibrium
	guesses []Values
	lanes   []int // this iteration's lane index per class
	ptrip   float64
	iter    int
	aitken  [3]float64
	aitkenN int
}

// SolveBatch runs Algorithm 1 for many game instances at once,
// returning one result per request in order. Instances iterate their
// outer fixed points in lockstep; each round, every instance's
// per-class Bellman solves are packed into one structure-of-arrays lane
// set (bellmanLanes) and advanced together, sharing each density's
// prefix-sum columns across lanes. Instances converge independently —
// a finished instance simply stops contributing lanes — and per-lane
// warm starts across outer iterations match FindEquilibrium's, so every
// result is byte-identical to a standalone FindEquilibriumWarm call
// with the same (Classes, Cfg, Warm) arguments.
//
// Telemetry parity: solver.runs / solver.iterations / solver.residual
// and the solver.step / solver.done trace events are emitted per
// instance exactly as FindEquilibrium emits them, but per-iteration
// solver.iter spans (Config.Span) are not — span trees assume one solve
// per parent, which a batch deliberately is not.
func SolveBatch(reqs []SolveRequest) []BatchResult {
	out := make([]BatchResult, len(reqs))
	active := make([]*batchInstance, 0, len(reqs))
	for i, r := range reqs {
		if err := validateRequest(r); err != nil {
			out[i].Err = err
			continue
		}
		r.Cfg.Metrics.Counter("solver.runs").Inc()
		inst := &batchInstance{
			idx:     i,
			classes: r.Classes,
			cfg:     r.Cfg,
			ptrip:   1.0, // Algorithm 1 initialization
			guesses: make([]Values, len(r.Classes)),
			eq: &Equilibrium{
				Classes:   make([]ClassOutcome, len(r.Classes)),
				Residuals: make([]float64, 0, r.Cfg.MaxFixedPointIter),
			},
		}
		if r.Warm != nil {
			// Mirrors FindEquilibriumWarm's seeding: the lane's first
			// sweeps start from the neighbour's Ptrip and Values.
			inst.ptrip = r.Warm.Ptrip
			copy(inst.guesses, r.Warm.Values)
		}
		active = append(active, inst)
	}

	var lanes bellmanLanes
	for len(active) > 0 {
		lanes.reset()
		for _, inst := range active {
			inst.lanes = inst.lanes[:0]
			for ci := range inst.classes {
				inst.lanes = append(inst.lanes,
					lanes.add(inst.classes[ci].Density, inst.ptrip, inst.cfg, inst.guesses[ci]))
			}
		}
		lanes.solve()
		next := active[:0]
		for _, inst := range active {
			done, err := inst.step(&lanes)
			switch {
			case err != nil:
				out[inst.idx].Err = err
			case done:
				out[inst.idx].Eq = inst.eq
			default:
				next = append(next, inst)
			}
		}
		active = next
	}
	return out
}

// validateRequest mirrors FindEquilibrium's entry checks, message for
// message.
func validateRequest(r SolveRequest) error {
	if err := r.Cfg.Validate(); err != nil {
		return err
	}
	if len(r.Classes) == 0 {
		return errors.New("core: no agent classes")
	}
	total := 0
	for _, c := range r.Classes {
		if err := c.Validate(); err != nil {
			return err
		}
		total += c.Count
	}
	if total != r.Cfg.N {
		return fmt.Errorf("core: class counts sum to %d but config has N = %d", total, r.Cfg.N)
	}
	// Warm-start checks, message for message with FindEquilibriumWarm.
	if r.Warm != nil {
		if r.Warm.Ptrip < 0 || r.Warm.Ptrip > 1 {
			return fmt.Errorf("core: warm-start ptrip = %v is not a probability", r.Warm.Ptrip)
		}
		if r.Warm.Values != nil && len(r.Warm.Values) != len(r.Classes) {
			return fmt.Errorf("core: warm start has %d value sets for %d classes", len(r.Warm.Values), len(r.Classes))
		}
	}
	return nil
}

// step consumes one lockstep iteration's lane results for this
// instance: derive class outcomes, update the fixed point, and decide
// whether the instance is finished. The body mirrors the iteration of
// FindEquilibriumWarm statement for statement so the trajectory — and
// therefore the returned Equilibrium — is bit-identical.
func (inst *batchInstance) step(lanes *bellmanLanes) (done bool, err error) {
	cfg := inst.cfg
	eq := inst.eq
	inst.iter++
	for ci := range inst.classes {
		li := inst.lanes[ci]
		if lerr := lanes.errs[li]; lerr != nil {
			// Lowest-indexed class failure wins, matching solveClasses.
			return false, fmt.Errorf("core: class %q: %w", inst.classes[ci].Name, lerr)
		}
		vals := lanes.values(li)
		classOutcome(&inst.classes[ci], vals, cfg, &eq.Classes[ci])
		inst.guesses[ci] = vals
	}
	// Deterministic reduction in class order (cf. FindEquilibriumWarm).
	nS := 0.0
	for i := range eq.Classes {
		nS += eq.Classes[i].ExpectedSprinters
	}
	next := cfg.Trip.Ptrip(nS)
	residual := math.Abs(next - inst.ptrip)
	eq.Sprinters = nS
	eq.Iterations = inst.iter
	eq.Residuals = append(eq.Residuals, residual)
	cfg.Metrics.Gauge("solver.residual").Set(residual)
	if cfg.Tracer.Enabled() {
		cfg.Tracer.Emit("solver.step", telemetry.Fields{
			"iter":      inst.iter,
			"ptrip":     inst.ptrip,
			"next":      next,
			"residual":  residual,
			"sprinters": nS,
		})
	}
	if residual < cfg.FixedPointTol {
		eq.Ptrip = inst.ptrip
		eq.Converged = true
		finishSolve(cfg, eq)
		return true, nil
	}
	inst.ptrip += cfg.Damping * (next - inst.ptrip)
	if cfg.Accel == AccelAitken {
		if inst.aitkenN < 3 {
			inst.aitken[inst.aitkenN] = inst.ptrip
			inst.aitkenN++
		}
		if inst.aitkenN == 3 {
			if ext, ok := aitkenExtrapolate(inst.aitken); ok {
				inst.ptrip = ext
			}
			inst.aitkenN = 0
		}
	}
	if inst.iter >= cfg.MaxFixedPointIter {
		eq.Ptrip = inst.ptrip
		finishSolve(cfg, eq)
		return true, nil
	}
	return false, nil
}
