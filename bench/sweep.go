package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"sprintgame/internal/core"
	"sprintgame/internal/dist"
	"sprintgame/internal/stats"
	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

// The sweep grid: every catalog density at 250 atoms, in 1-, 2- and
// 4-class mixes of N = 1000 agents, across three cooling and three
// recovery probabilities — 297 instances, the §6.4–6.5 sweep shape.
const (
	sweepAtoms = 250
	sweepN     = 1000
	// maxBestResponseGap bounds VerifyNoBeneficialDeviation on the check
	// pass; today's solver reaches about 1e-13.
	maxBestResponseGap = 1e-9
)

var (
	sweepMixes = []int{1, 2, 4}
	sweepPc    = []float64{0.4, 0.5, 0.6}
	sweepPr    = []float64{0.80, 0.88, 0.95}
)

// keySink keeps the timed SolveKey calls observable.
var keySink uint64

type sweepInstance struct {
	classes []core.AgentClass
	cfg     core.Config
	// ptrip and iters are the check pass's answer, which every timed
	// solve of the instance must reproduce exactly.
	ptrip float64
	iters int
}

func (s *sweepInstance) String() string {
	names := make([]string, len(s.classes))
	for i, c := range s.classes {
		names[i] = c.Name
	}
	return fmt.Sprintf("%v at pc %.2f pr %.2f", names, s.cfg.Pc, s.cfg.Pr)
}

// buildSweep discretizes the catalog and lays out the grid.
func buildSweep() ([]*sweepInstance, error) {
	cat := workload.Catalog()
	dens := make([]*dist.Discrete, len(cat))
	for i, b := range cat {
		var err error
		if dens[i], err = b.DiscreteDensity(sweepAtoms); err != nil {
			return nil, err
		}
	}
	var grid []*sweepInstance
	for d := range cat {
		for _, k := range sweepMixes {
			classes := make([]core.AgentClass, k)
			for j := range classes {
				c := (d + j) % len(cat)
				classes[j] = core.AgentClass{Name: cat[c].Name, Count: sweepN / k, Density: dens[c]}
			}
			for _, pc := range sweepPc {
				for _, pr := range sweepPr {
					cfg := core.DefaultConfig()
					cfg.N, cfg.Pc, cfg.Pr = sweepN, pc, pr
					grid = append(grid, &sweepInstance{classes: classes, cfg: cfg})
				}
			}
		}
	}
	return grid, nil
}

// setupSweep builds the grid and solves each density once alone at the
// default game parameters, which fills the densities' lazy prefix sums.
func setupSweep() ([]*sweepInstance, error) {
	grid, err := buildSweep()
	if err != nil {
		return nil, err
	}
	def := core.DefaultConfig()
	for _, inst := range grid {
		if len(inst.classes) == 1 && inst.cfg.Pc == def.Pc && inst.cfg.Pr == def.Pr {
			if _, err := core.FindEquilibrium(inst.classes, inst.cfg); err != nil {
				return nil, err
			}
		}
	}
	return grid, nil
}

// runSweep runs solve-sweep: complete passes over the grid in a seeded
// order, one FindEquilibrium at a time.
func runSweep(p phase) (*outcome, error) {
	o := &outcome{layers: layerMetrics{}}
	var grid []*sweepInstance
	for i := 0; i < p.setupReps(); i++ {
		start := time.Now()
		var err error
		if grid, err = setupSweep(); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start))
	}

	// Untimed check pass: every instance converges to a best response.
	var iters, gap float64
	for _, inst := range grid {
		eq, err := core.FindEquilibrium(inst.classes, inst.cfg)
		if err != nil {
			o.fail("check pass: %s: %v", inst, err)
			continue
		}
		if !eq.Converged {
			o.fail("check pass: %s did not converge", inst)
		}
		g, err := eq.VerifyNoBeneficialDeviation(inst.classes, inst.cfg)
		if err != nil || g > maxBestResponseGap {
			o.fail("check pass: %s: best-response gap %g (%v)", inst, g, err)
		}
		inst.ptrip, inst.iters = eq.Ptrip, eq.Iterations
		iters += float64(eq.Iterations)
		gap = max(gap, g)
	}
	o.layers["core.alg1_iters.mean"] = iters / float64(len(grid))
	o.layers["core.best_response_gap.max"] = gap

	probes := map[string][]float64{}
	classesOf := map[uint64]int{}
	rng := stats.NewRNG(p.seed)
	runtime.GC()
	o.before = readResources()
	t0 := time.Now()
	deadline := t0.Add(p.dur)
	rec := newRecorder(t0, p.dur)
	var seq uint64
	for time.Now().Before(deadline) {
		for _, i := range rng.Perm(len(grid)) {
			if !time.Now().Before(deadline) {
				break
			}
			inst := grid[i]
			start := time.Now()
			// Traced, each solve runs under a bench.solve parent span, and
			// the uncached solve path emits its core.solve child exactly
			// as the cache does on a miss. Untraced, parent is nil and this
			// is core.FindEquilibrium.
			var parent *telemetry.Span
			if p.traced {
				seq++
				trace := telemetry.TraceIDFromSeed(p.seed<<32 + seq)
				id, err := parseID(trace)
				if err != nil {
					return nil, err
				}
				classesOf[id] = len(inst.classes)
				parent = p.tracer.StartSpan("bench.solve", trace)
			}
			eq, err := (*core.SolveCache)(nil).FindEquilibriumSpanned(inst.classes, inst.cfg, parent)
			parent.End()
			end := time.Now()
			rec.attempted++
			if err != nil || !eq.Converged || eq.Ptrip != inst.ptrip || eq.Iterations != inst.iters {
				rec.failed++
				continue
			}
			rec.done(start, end, 1)
			if p.traced {
				sweepProbes(inst, eq.Ptrip, probes, o)
			}
		}
	}
	o.after = readResources()
	o.rec = rec
	if p.traced {
		sweepLayers(p.sink, classesOf, probes, o)
	}
	return o, nil
}

// sweepProbes times the keying and inner-solve layers directly on one
// instance, outside the timed solve: SolveKey, and SolveBellman per class
// at the equilibrium's Ptrip.
func sweepProbes(inst *sweepInstance, ptrip float64, probes map[string][]float64, o *outcome) {
	key := "core.solve_key_us.c" + strconv.Itoa(len(inst.classes))
	start := time.Now()
	keySink ^= core.SolveKey(inst.classes, inst.cfg)
	probes[key] = append(probes[key], float64(time.Since(start))/1e3)
	for _, c := range inst.classes {
		start := time.Now()
		if _, err := core.SolveBellman(c.Density, ptrip, inst.cfg); err != nil {
			o.fail("SolveBellman %s: %v", c.Name, err)
			continue
		}
		probes["core.bellman_us"] = append(probes["core.bellman_us"], float64(time.Since(start))/1e3)
	}
}

// sweepLayers reads each timed solve's core.solve span, the child of its
// bench.solve parent: Algorithm 1 as a whole, and its iterations
// (solver.iter spans, each holding the per-class inner solves).
func sweepLayers(sink *spanSink, classesOf map[uint64]int, probes map[string][]float64, o *outcome) {
	recs, names, err := sink.take()
	if err != nil {
		o.fail("%v", err)
		return
	}
	s := probes
	var solves, converged int
	for _, t := range groupTraces(recs, names) {
		for _, root := range t.roots {
			if t.name(root) != "bench.solve" {
				continue
			}
			c := t.child(root, "core.solve")
			if c < 0 {
				o.fail("trace %016x has no core.solve span", t.recs[root].trace)
				continue
			}
			r := t.recs[c]
			solves++
			if r.flag {
				converged++
			}
			ms := float64(r.dur) / 1e6
			s["core.solve_ms"] = append(s["core.solve_ms"], ms)
			key := "core.solve_ms.c" + strconv.Itoa(classesOf[r.trace])
			s[key] = append(s[key], ms)
			for _, it := range t.children[r.id] {
				s["core.solver_iter_us"] = append(s["core.solver_iter_us"], float64(t.recs[it].dur)/1e3)
			}
			o.attributed += float64(r.dur)
		}
	}
	if int64(solves) != o.rec.attempted {
		o.fail("%d solve spans for %d solves", solves, o.rec.attempted)
	}
	o.opTotal = o.rec.hist.sumNS
	if solves > 0 {
		o.layers["core.converged_share"] = float64(converged) / float64(solves)
	}
	o.layers.p50("core.solve_ms", s)
	o.layers.p99("core.solve_ms", s)
	for _, k := range sweepMixes {
		c := ".c" + strconv.Itoa(k)
		if v, ok := p50Of(s["core.solve_ms"+c]); ok {
			o.layers["core.solve_ms.p50"+c] = v
		}
		if v, ok := p50Of(s["core.solve_key_us"+c]); ok {
			o.layers["core.solve_key_us.p50"+c] = v
		}
	}
	o.layers.p50("core.solver_iter_us", s)
	o.layers.p50("core.bellman_us", s)
}
