package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"sprintgame/internal/dist"
	"sprintgame/internal/power"
	"sprintgame/internal/stats"
	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

// catalogDensities returns every catalog workload's discretized density.
// Short mode keeps the first three — enough to cover the unimodal,
// bimodal, and outlier shapes — so the race-detector pass stays quick.
func catalogDensities(t *testing.T, bins int) map[string]*dist.Discrete {
	t.Helper()
	out := make(map[string]*dist.Discrete)
	for i, b := range workload.Catalog() {
		if testing.Short() && i >= 3 {
			break
		}
		d, err := b.DiscreteDensity(bins)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		out[b.Name] = d
	}
	return out
}

// sweepKernel evaluates Eq. (4)'s expectation E_f[max(u + sprintCont,
// vNoSprint)] for one value-iteration sweep.
type sweepKernel func(f *dist.Discrete, sprintCont, vNoSprint float64) float64

// sweepScan is the seed implementation's O(n) atom-by-atom scan. Ties
// sprint: an atom only takes the no-sprint value on a strict comparison.
func sweepScan(f *dist.Discrete, sprintCont, vNoSprint float64) float64 {
	xs, ps, _, _ := f.KernelView()
	e := 0.0
	for i := range xs {
		v := xs[i] + sprintCont
		if vNoSprint > v {
			v = vNoSprint
		}
		e += ps[i] * v
	}
	return e
}

// sweepCrossover evaluates the same expectation in O(log n): atoms below
// the crossover t = vNoSprint - sprintCont take the no-sprint value,
// atoms at or above it sprint, and the density's prefix sums give both
// sides' mass and weighted mass. It reads the density through
// KernelView, as the exact Bellman solve does.
func sweepCrossover(f *dist.Discrete, sprintCont, vNoSprint float64) float64 {
	xs, _, cumP, cumPX := f.KernelView()
	k := sort.SearchFloat64s(xs, vNoSprint-sprintCont)
	n := len(xs)
	return cumP[k]*vNoSprint + (cumPX[n] - cumPX[k]) + (cumP[n]-cumP[k])*sprintCont
}

// referenceBellman is the value-iteration reference for the exact inner
// solve: Eqs. (4)-(6) iterated jointly from zero until no value moves by
// more than tol. The recursion contracts with modulus delta, so the
// result sits within tol·delta/(1-delta) of the fixed point.
func referenceBellman(tb testing.TB, f *dist.Discrete, ptrip float64, cfg Config, tol float64, sweep sweepKernel) Values {
	tb.Helper()
	d := cfg.Delta
	var vA, vC, vR float64
	for iter := 0; iter < 1_000_000; iter++ {
		vNoSprint := d * (vA*(1-ptrip) + vR*ptrip)
		sprintCont := d * (vC*(1-ptrip) + vR*ptrip)
		newVA := sweep(f, sprintCont, vNoSprint)
		newVC := d*(vC*cfg.Pc+vA*(1-cfg.Pc))*(1-ptrip) + d*vR*ptrip
		newVR := d * (vR*cfg.Pr + vA*(1-cfg.Pr))
		diff := math.Max(math.Abs(newVA-vA), math.Max(math.Abs(newVC-vC), math.Abs(newVR-vR)))
		vA, vC, vR = newVA, newVC, newVR
		if diff < tol {
			return Values{VA: vA, VC: vC, VR: vR, Threshold: d * (vA - vC) * (1 - ptrip), Ptrip: ptrip}
		}
	}
	tb.Fatalf("reference value iteration did not converge (ptrip %v, pc %v, pr %v)", ptrip, cfg.Pc, cfg.Pr)
	return Values{}
}

// valuesDistance is the largest discrepancy across VA/VC/VR/Threshold.
func valuesDistance(a, b Values) float64 {
	d := math.Abs(a.VA - b.VA)
	d = math.Max(d, math.Abs(a.VC-b.VC))
	d = math.Max(d, math.Abs(a.VR-b.VR))
	return math.Max(d, math.Abs(a.Threshold-b.Threshold))
}

// crossoverTieDensity returns a density one of whose atoms sits on the
// sprint/no-sprint crossover of its own exact solve at ptrip: the atom
// is moved onto the threshold it induces until the two agree. The
// threshold moves with the atom by at most its probability times
// (n-s)/(1-a) < 1, so the iteration contracts.
func crossoverTieDensity(tb testing.TB, ptrip float64, cfg Config) *dist.Discrete {
	tb.Helper()
	values := []float64{1, 1.7, 2.9, 4.1, 6.3, 8.2, 0}
	weights := []float64{3, 2, 2, 1, 1, 1, 0.05}
	tie := 3.0
	for i := 0; i < 200; i++ {
		values[len(values)-1] = tie
		f, err := dist.NewDiscrete(values, weights)
		if err != nil {
			tb.Fatal(err)
		}
		v, err := SolveBellman(f, ptrip, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if v.Threshold == tie {
			return f
		}
		tie = v.Threshold
	}
	tb.Fatalf("no crossover tie at ptrip %v", ptrip)
	return nil
}

// gridPcs and gridPrs are the pc and pr values of the kernel grid.
var (
	gridPcs = []float64{0, 0.4, 0.5, 0.6, 0.95, 1}
	gridPrs = []float64{0, 0.8, 0.88, 0.95, 1}
)

// kernelGridDensities returns the kernel grid's densities: every catalog
// density plus one with an atom at zero (the crossover at Ptrip = 1) and
// one with an atom on its own threshold at Ptrip 0.3 under cfg.
func kernelGridDensities(t *testing.T, cfg Config) map[string]*dist.Discrete {
	t.Helper()
	densities := catalogDensities(t, 250)
	zeroAtom, err := dist.NewDiscrete([]float64{0, 1, 2.5, 6}, []float64{1, 2, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	densities["atom-at-zero"] = zeroAtom
	densities["atom-on-threshold"] = crossoverTieDensity(t, 0.3, cfg)
	return densities
}

// TestKernelDifferential checks the exact inner solve against value
// iteration run to 1e-13 on every catalog density × 101 Ptrips × Pc
// {0,.4,.5,.6,.95,1} × Pr {0,.8,.88,.95,1}, plus densities with an atom
// exactly on the crossover (at Ptrip = 1 the crossover is u = 0; at an
// interior Ptrip the atom is placed on its own threshold). The reference
// sweeps with the O(log n) crossover kernel; on a subgrid it is checked
// against the seed's O(n) scan first.
func TestKernelDifferential(t *testing.T) {
	const tol, viTol = 1e-10, 1e-13
	steps := 100
	if testing.Short() {
		steps = 10
	}
	cfg := DefaultConfig()
	densities := kernelGridDensities(t, cfg)

	for _, name := range []string{"atom-on-threshold", "atom-at-zero", "svm"} {
		f, ok := densities[name]
		if !ok {
			continue
		}
		for _, ptrip := range []float64{0, 0.3, 1} {
			scan := referenceBellman(t, f, ptrip, cfg, viTol, sweepScan)
			cross := referenceBellman(t, f, ptrip, cfg, viTol, sweepCrossover)
			if d := valuesDistance(scan, cross); d > tol {
				t.Errorf("%s ptrip=%v: crossover reference differs from scan by %.3e", name, ptrip, d)
			}
		}
	}

	worst := 0.0
	for name, f := range densities {
		for _, pc := range gridPcs {
			for _, pr := range gridPrs {
				c := cfg
				c.Pc, c.Pr = pc, pr
				for i := 0; i <= steps; i++ {
					ptrip := float64(i) / float64(steps)
					got, err := SolveBellman(f, ptrip, c)
					if err != nil {
						t.Fatalf("%s ptrip=%v pc=%v pr=%v: %v", name, ptrip, pc, pr, err)
					}
					ref := referenceBellman(t, f, ptrip, c, viTol, sweepCrossover)
					d := valuesDistance(got, ref)
					worst = math.Max(worst, d)
					if d > tol {
						t.Errorf("%s ptrip=%v pc=%v pr=%v: exact solve differs from value iteration by %.3e:\n got %+v\n ref %+v",
							name, ptrip, pc, pr, d, got, ref)
					}
				}
			}
		}
	}
	t.Logf("worst exact vs value-iteration distance: %.3e", worst)
}

// TestSprintProbFromCrossoverMatchesTailProb checks that solveClass's
// ps, read off the solve's crossover index, is bit for bit
// Density.TailProb of its threshold, and that its values are
// SolveBellman's. It runs over the kernel grid plus densities with an
// atom on their own threshold at Ptrip 0.1 and 0.7 and one whose total
// mass rounds above 1, and checks that the grid exercises the fallback
// to a second search (e.g. an atom exactly on the threshold sprints in
// the dynamic program but is not above it).
func TestSprintProbFromCrossoverMatchesTailProb(t *testing.T) {
	steps := 100
	if testing.Short() {
		steps = 10
	}
	cfg := DefaultConfig()
	densities := kernelGridDensities(t, cfg)
	densities["atom-on-threshold@0.1"] = crossoverTieDensity(t, 0.1, cfg)
	densities["atom-on-threshold@0.7"] = crossoverTieDensity(t, 0.7, cfg)
	// Nine equal weights normalize to a total mass of 1+2^-52: where
	// every atom sprints, ps is clamped to 1, as TailProb clamps it.
	nine := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	massAboveOne, err := dist.NewDiscrete(nine, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, cumP, _ := massAboveOne.KernelView(); cumP[len(nine)] <= 1 {
		t.Fatalf("total mass %v, want above 1", cumP[len(nine)])
	}
	densities["mass-above-one"] = massAboveOne

	solves, fallbacks := 0, 0
	for name, f := range densities {
		class := AgentClass{Name: name, Count: cfg.N, Density: f}
		xs, _, cumP, cumPX := f.KernelView()
		for _, pc := range gridPcs {
			for _, pr := range gridPrs {
				c := cfg
				c.Pc, c.Pr = pc, pr
				r := recoveryRatio(c.Delta, c.Pr)
				for i := 0; i <= steps; i++ {
					ptrip := float64(i) / float64(steps)
					step := newBellmanStep(ptrip, c.Delta, c.Pc, r)
					var out ClassOutcome
					solveClass(&class, &step, c.Pc, &out)
					solves++
					want := f.TailProb(out.Threshold)
					if math.Float64bits(out.SprintProb) != math.Float64bits(want) {
						t.Errorf("%s ptrip=%v pc=%v pr=%v: ps = %v (%#x), TailProb = %v (%#x)",
							name, ptrip, pc, pr, out.SprintProb, math.Float64bits(out.SprintProb),
							want, math.Float64bits(want))
					}
					vals, err := SolveBellman(f, ptrip, c)
					if err != nil {
						t.Fatal(err)
					}
					if out.Values != vals || out.Threshold != vals.Threshold {
						t.Errorf("%s ptrip=%v pc=%v pr=%v: values %+v, SolveBellman %+v", name, ptrip, pc, pr, out.Values, vals)
					}
					var v Values
					lo := step.solve(xs, cumP, cumPX, &v)
					if !((lo == len(xs) || xs[lo] > v.Threshold) && (lo == 0 || xs[lo-1] <= v.Threshold)) {
						fallbacks++
					}
				}
			}
		}
	}
	t.Logf("%d of %d solves fell back to a second search", fallbacks, solves)
	if fallbacks == 0 {
		t.Error("no solve exercised the fallback: the grid lost its atom-on-threshold cases")
	}
}

// TestExactSolveEquivalenceProperty: the exact solve agrees with value
// iteration on random densities, parameters and Ptrips.
func TestExactSolveEquivalenceProperty(t *testing.T) {
	check := func(seed uint32) bool {
		r := stats.NewRNG(uint64(seed))
		n := r.Intn(40) + 2
		vals := make([]float64, n)
		ws := make([]float64, n)
		for i := range vals {
			vals[i] = r.Range(0, 12)
			ws[i] = r.Float64() + 0.01
		}
		f, err := dist.NewDiscrete(vals, ws)
		if err != nil {
			return false
		}
		cfg := DefaultConfig()
		cfg.Pc, cfg.Pr, cfg.Delta = r.Float64(), r.Float64(), r.Range(0.5, 0.99)
		ptrip := r.Float64()
		got, err := SolveBellman(f, ptrip, cfg)
		if err != nil {
			return false
		}
		ref := referenceBellman(t, f, ptrip, cfg, 1e-13, sweepScan)
		return valuesDistance(got, ref) <= 1e-10
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// referenceEquilibrium is the seed implementation of Algorithm 1: value
// iteration for every inner solve and the seed's damped update
// (Damping 0.25) from Ptrip = 1 — independent of both the exact inner
// solve and the undamped descent.
func referenceEquilibrium(t *testing.T, classes []AgentClass, cfg Config) *Equilibrium {
	t.Helper()
	const damping = 0.25
	ptrip := 1.0
	eq := &Equilibrium{Classes: make([]ClassOutcome, len(classes))}
	for iter := 1; iter <= cfg.MaxFixedPointIter; iter++ {
		nS := 0.0
		for i, c := range classes {
			vals := referenceBellman(t, c.Density, ptrip, cfg, 1e-12, sweepScan)
			ps := SprintProbability(c.Density, vals.Threshold)
			pa := ActiveFraction(ps, cfg.Pc)
			contrib := ps * pa * float64(c.Count)
			eq.Classes[i] = ClassOutcome{
				Name: c.Name, Threshold: vals.Threshold, SprintProb: ps,
				ActiveFrac: pa, ExpectedSprinters: contrib, Values: vals,
			}
			nS += contrib
		}
		next := cfg.Trip.Ptrip(nS)
		eq.Sprinters = nS
		eq.Iterations = iter
		if math.Abs(next-ptrip) < cfg.FixedPointTol {
			eq.Ptrip = ptrip
			eq.Converged = true
			return eq
		}
		ptrip += damping * (next - ptrip)
	}
	eq.Ptrip = ptrip
	return eq
}

// TestEquilibriumMatchesReference runs the solver against the seed
// reference path on every catalog workload. Both run at a tightened
// FixedPointTol so each lands well within the default FixedPointTol of
// the true fixed point, then equilibria are compared at the default.
func TestEquilibriumMatchesReference(t *testing.T) {
	base := DefaultConfig()
	tol := base.FixedPointTol
	cfg := base
	cfg.N = 64
	cfg.Trip = power.LinearTripModel{NMin: 16, NMax: 48}
	cfg.FixedPointTol = 1e-9

	for name, f := range catalogDensities(t, 120) {
		classes := []AgentClass{{Name: name, Count: cfg.N, Density: f}}
		got, err := FindEquilibrium(classes, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref := referenceEquilibrium(t, classes, cfg)
		if !got.Converged || !ref.Converged {
			t.Fatalf("%s: converged got=%v ref=%v", name, got.Converged, ref.Converged)
		}
		if d := math.Abs(got.Ptrip - ref.Ptrip); d > tol {
			t.Errorf("%s: ptrip differs by %.3e (> %g)", name, d, tol)
		}
		if d := math.Abs(got.Sprinters - ref.Sprinters); d > tol*float64(cfg.N) {
			t.Errorf("%s: sprinters differ by %.3e", name, d)
		}
		for i := range got.Classes {
			if d := math.Abs(got.Classes[i].Threshold - ref.Classes[i].Threshold); d > tol {
				t.Errorf("%s class %d: threshold differs by %.3e (> %g)", name, i, d, tol)
			}
		}
	}
}

// tripResponse is Algorithm 1's map T(p): solve every class's dynamic
// program at Ptrip p and return the Ptrip the induced sprinters imply.
func tripResponse(tb testing.TB, classes []AgentClass, cfg Config, p float64) float64 {
	tb.Helper()
	nS := 0.0
	for _, c := range classes {
		v, err := SolveBellman(c.Density, p, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		nS += expectedSprinters(c.Density, v.Threshold, cfg.Pc, c.Count)
	}
	return cfg.Trip.Ptrip(nS)
}

// TestEquilibriumIsLargestFixedPoint: svm at Pc .4 / Pr .8 has fixed
// points near 0.19168, 0.19607 and 0.19668. Algorithm 1 selects the
// largest — which a bisection would miss — and T(p) - p keeps its sign
// over (p*, 1].
func TestEquilibriumIsLargestFixedPoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pc, cfg.Pr = 0.4, 0.8
	classes := []AgentClass{{Name: "svm", Count: cfg.N, Density: density(t, "svm")}}
	eq, err := FindEquilibrium(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Converged || math.Abs(eq.Ptrip-0.19668) > 1e-5 {
		t.Fatalf("Ptrip = %v (converged %v), want the largest fixed point 0.19668", eq.Ptrip, eq.Converged)
	}
	const points = 20000
	for i := 1; i <= points; i++ {
		p := eq.Ptrip + (1-eq.Ptrip)*float64(i)/points
		if d := tripResponse(t, classes, cfg, p) - p; d >= 0 {
			t.Fatalf("T(p) - p = %v at p = %v above the returned fixed point %v", d, p, eq.Ptrip)
		}
	}
	// The lower fixed points exist: T(p) - p changes sign below p*.
	crossings := 0
	prev := tripResponse(t, classes, cfg, 0.19) - 0.19
	for p := 0.19; p < eq.Ptrip-1e-4; p += 1e-6 {
		d := tripResponse(t, classes, cfg, p) - p
		if (d < 0) != (prev < 0) {
			crossings++
		}
		prev = d
	}
	if crossings == 0 {
		t.Errorf("no fixed point of T below %v: the instance no longer tests selection", eq.Ptrip)
	}
}

// TestDescentNeverRises is the witness for the monotonicity argument in
// FindEquilibrium's comment: from Ptrip = 1, no undamped outer iterate
// rises, on every catalog density × Pc {.4,.5,.6} × Pr {.8,.88,.95}.
func TestDescentNeverRises(t *testing.T) {
	type step struct {
		Name  string  `json:"name"`
		Ptrip float64 `json:"ptrip"`
		Next  float64 `json:"next"`
	}
	most := 0
	for name, f := range catalogDensities(t, 250) {
		for _, pc := range []float64{0.4, 0.5, 0.6} {
			for _, pr := range []float64{0.80, 0.88, 0.95} {
				var buf bytes.Buffer
				cfg := DefaultConfig()
				cfg.Pc, cfg.Pr = pc, pr
				cfg.Span = telemetry.NewTracer(&buf).StartSpan("test", "t")
				eq, err := SingleClass(name, f, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !eq.Converged {
					t.Errorf("%s pc=%v pr=%v: did not converge", name, pc, pr)
				}
				most = max(most, eq.Iterations)
				dec := json.NewDecoder(&buf)
				for dec.More() {
					var s step
					if err := dec.Decode(&s); err != nil {
						t.Fatal(err)
					}
					if s.Name == "solver.iter" && s.Next > s.Ptrip {
						t.Errorf("%s pc=%v pr=%v: iterate rose from %v to %v", name, pc, pr, s.Ptrip, s.Next)
					}
				}
			}
		}
	}
	t.Logf("most outer iterations: %d", most)
}

// multiClassInstance builds a heterogeneous rack of k classes with
// shifted synthetic densities.
func multiClassInstance(tb testing.TB, k, atoms int) ([]AgentClass, Config) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.N = 64
	cfg.Trip = power.LinearTripModel{NMin: 16, NMax: 48}
	per := cfg.N / k
	classes := make([]AgentClass, k)
	for c := 0; c < k; c++ {
		values := make([]float64, atoms)
		weights := make([]float64, atoms)
		for i := range values {
			values[i] = 1 + 0.3*float64(c) + 7*float64(i)/float64(atoms-1)
			weights[i] = 1 + float64((i+c)%5)
		}
		d, err := dist.NewDiscrete(values, weights)
		if err != nil {
			tb.Fatal(err)
		}
		count := per
		if c == k-1 {
			count = cfg.N - per*(k-1)
		}
		classes[c] = AgentClass{Name: "class-" + string(rune('a'+c)), Count: count, Density: d}
	}
	return classes, cfg
}

// TestParallelEquilibriumDeterministic: solves running concurrently on
// shared, freshly built densities (whose prefix sums are built lazily on
// first use) are byte-identical to a serial solve. Run with -race.
func TestParallelEquilibriumDeterministic(t *testing.T) {
	classes, cfg := multiClassInstance(t, 5, 80)
	want, err := FindEquilibrium(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := multiClassInstance(t, 5, 80)
	var wg sync.WaitGroup
	got := make([]*Equilibrium, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], _ = FindEquilibrium(fresh, cfg)
		}(g)
	}
	wg.Wait()
	for g, eq := range got {
		if !reflect.DeepEqual(eq, want) {
			t.Errorf("goroutine %d: equilibrium differs from serial solve:\n got %+v\nwant %+v", g, eq, want)
		}
	}
}

// TestSweepWarmMatchesCold checks that every point of a sensitivity
// sweep matches an independent cold solve.
func TestSweepWarmMatchesCold(t *testing.T) {
	b, err := workload.ByName(workload.Names()[0])
	if err != nil {
		t.Fatal(err)
	}
	f, err := b.DiscreteDensity(120)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.N = 64
	cfg.Trip = power.LinearTripModel{NMin: 16, NMax: 48}

	values := []float64{0.3, 0.4, 0.5, 0.6, 0.7}
	pts, err := SweepPc(f, cfg, values)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		cold := cfg
		cold.Pc = v
		eq, err := SingleClass("sweep", f, cold)
		if err != nil {
			t.Fatalf("cold pc=%v: %v", v, err)
		}
		if d := math.Abs(pts[i].Ptrip - eq.Ptrip); d > 1e-5 {
			t.Errorf("pc=%v: sweep ptrip differs from cold by %.3e", v, d)
		}
		if d := math.Abs(pts[i].Threshold - eq.Classes[0].Threshold); d > 1e-5 {
			t.Errorf("pc=%v: sweep threshold differs from cold by %.3e", v, d)
		}
	}
}

// TestFindEquilibriumAllocations pins the solver's allocation count: the
// equilibrium struct, its class slice and its pre-sized residuals —
// nothing per iteration or per class solve. A regression here means a
// hot-loop allocation crept back in.
func TestFindEquilibriumAllocations(t *testing.T) {
	classes, cfg := multiClassInstance(t, 2, 80)
	// Prime density prefix sums so the measurement sees steady state.
	if _, err := FindEquilibrium(classes, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := FindEquilibrium(classes, cfg); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 3
	if allocs > maxAllocs {
		t.Errorf("FindEquilibrium allocated %.0f objects per solve, want <= %d", allocs, maxAllocs)
	}
}
