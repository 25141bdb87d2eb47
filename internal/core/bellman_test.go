package core

import (
	"math"
	"testing"
	"testing/quick"

	"sprintgame/internal/dist"
	"sprintgame/internal/power"
	"sprintgame/internal/stats"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// testConfig returns the Table 2 config.
func testConfig() Config {
	return DefaultConfig()
}

func uniformDensity(lo, hi float64, n int) *dist.Discrete {
	d, err := dist.Discretize(dist.Uniform{Lo: lo, Hi: hi}, n)
	if err != nil {
		panic(err)
	}
	return d
}

func bimodalDensity() *dist.Discrete {
	m := dist.Mixture{
		Components: []dist.Density{
			dist.TruncNormal{Mu: 2.5, Sigma: 0.7, Lo: 1, Hi: 5},
			dist.TruncNormal{Mu: 7, Sigma: 1.2, Lo: 3.5, Hi: 11},
		},
		Weights: []float64{0.55, 0.45},
	}
	d, err := dist.Discretize(m, 250)
	if err != nil {
		panic(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.Trip = nil },
		func(c *Config) { c.Pc = -0.1 },
		func(c *Config) { c.Pr = 1.1 },
		func(c *Config) { c.Delta = 1 },
		func(c *Config) { c.Delta = 0 },
		func(c *Config) { c.FixedPointTol = 0 },
		func(c *Config) { c.MaxFixedPointIter = 0 },
		func(c *Config) { c.Damping = 0 },
		func(c *Config) { c.Damping = 1.5 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestSolveBellmanInputValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := SolveBellman(nil, 0, cfg); err == nil {
		t.Error("nil density should error")
	}
	if _, err := SolveBellman(uniformDensity(1, 5, 10), -0.1, cfg); err == nil {
		t.Error("negative ptrip should error")
	}
	if _, err := SolveBellman(uniformDensity(1, 5, 10), 1.1, cfg); err == nil {
		t.Error("ptrip > 1 should error")
	}
	bad := cfg
	bad.Pc = 2
	if _, err := SolveBellman(bimodalDensity(), 0, bad); err == nil {
		t.Error("invalid config should error")
	}
}

func TestBellmanClosedFormNoTrip(t *testing.T) {
	// With ptrip = 0 the solution satisfies closed forms derivable from
	// Eqs. (2)-(6):
	//   VA(1-delta) = E[(u - uT)+]
	//   VC = delta (1-pc) VA / (1 - delta pc)
	//   uT = delta (VA - VC)
	f := bimodalDensity()
	cfg := testConfig()
	v, err := SolveBellman(f, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := cfg.Delta
	// Check VC identity.
	wantVC := d * (1 - cfg.Pc) * v.VA / (1 - d*cfg.Pc)
	if !almost(v.VC, wantVC, 1e-4*(1+v.VC)) {
		t.Errorf("VC = %v, closed form %v", v.VC, wantVC)
	}
	// Check threshold identity.
	if !almost(v.Threshold, d*(v.VA-v.VC), 1e-9) {
		t.Errorf("threshold = %v, want delta(VA-VC) = %v", v.Threshold, d*(v.VA-v.VC))
	}
	// Check VA fixed point: VA = delta*VA + E[(u-uT)+] (ptrip = 0).
	surplus := 0.0
	for i := 0; i < f.Len(); i++ {
		u, p := f.Atom(i)
		if u > v.Threshold {
			surplus += p * (u - v.Threshold)
		}
	}
	if !almost(v.VA*(1-d), surplus, 1e-3*(1+surplus)) {
		t.Errorf("VA(1-delta) = %v, E[(u-uT)+] = %v", v.VA*(1-d), surplus)
	}
	// With pr = 0.88 and no trips the recovery state is still valued via
	// Eq. (6).
	wantVR := d * (1 - cfg.Pr) * v.VA / (1 - d*cfg.Pr)
	if !almost(v.VR, wantVR, 1e-4*(1+v.VR)) {
		t.Errorf("VR = %v, closed form %v", v.VR, wantVR)
	}
}

func TestBellmanValueOrdering(t *testing.T) {
	// Active always dominates the constrained states. At low trip risk
	// cooling beats recovery (it is shorter: pc < pr); at high trip risk
	// the order flips because Eq. (5) sends cooling agents into recovery
	// anyway, with an extra epoch of delay.
	f := bimodalDensity()
	for _, ptrip := range []float64{0, 0.1, 0.5, 1} {
		v, err := SolveBellman(f, ptrip, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !(v.VA >= v.VC-1e-9) || !(v.VA >= v.VR-1e-9) {
			t.Errorf("ptrip=%v: active must dominate, got VA=%v VC=%v VR=%v", ptrip, v.VA, v.VC, v.VR)
		}
		if v.Threshold < 0 {
			t.Errorf("ptrip=%v: negative threshold %v", ptrip, v.Threshold)
		}
	}
	low, _ := SolveBellman(f, 0.05, testConfig())
	if low.VC < low.VR {
		t.Errorf("at low trip risk cooling should beat recovery: VC=%v VR=%v", low.VC, low.VR)
	}
	high, _ := SolveBellman(f, 1, testConfig())
	if high.VC > high.VR {
		t.Errorf("at ptrip=1 cooling delays recovery and must be worth less: VC=%v VR=%v", high.VC, high.VR)
	}
}

func TestBellmanThresholdDecreasesWithPtrip(t *testing.T) {
	// Eq. (8): uT = delta (VA - VC)(1 - Ptrip). Higher trip risk lowers
	// the threshold — agents sprint more aggressively because future
	// sprints are likely to be forbidden anyway (§6.5).
	f := bimodalDensity()
	prev := math.Inf(1)
	for _, ptrip := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		v, err := SolveBellman(f, ptrip, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if v.Threshold > prev+1e-9 {
			t.Fatalf("threshold rose with ptrip at %v: %v > %v", ptrip, v.Threshold, prev)
		}
		prev = v.Threshold
	}
	// At ptrip = 1 the threshold collapses to zero: sprint on anything.
	v, _ := SolveBellman(f, 1, testConfig())
	if v.Threshold != 0 {
		t.Errorf("threshold at ptrip=1 is %v, want 0", v.Threshold)
	}
}

func TestBellmanThresholdRisesWithCooling(t *testing.T) {
	// Figure 13, first panel: longer cooling (higher pc) raises the
	// threshold — the opportunity cost of a mistaken sprint grows.
	f := bimodalDensity()
	prev := -1.0
	for _, pc := range []float64{0.0, 0.25, 0.5, 0.75, 0.9} {
		cfg := testConfig()
		cfg.Pc = pc
		v, err := SolveBellman(f, 0.05, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if v.Threshold < prev-1e-9 {
			t.Fatalf("threshold fell as cooling lengthened at pc=%v", pc)
		}
		prev = v.Threshold
	}
}

func TestBellmanDegenerateDensity(t *testing.T) {
	// A single-atom density: every epoch is identical, so the agent
	// cannot be selective. The threshold must fall at or below the atom,
	// and the sprint probability is 1 — the paper's greedy equilibrium
	// for flat profiles.
	f := dist.MustDiscrete([]float64{4}, []float64{1})
	v, err := SolveBellman(f, 0, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v.Threshold >= 4 {
		t.Errorf("threshold %v sits above the only utility 4", v.Threshold)
	}
	if ps := SprintProbability(f, v.Threshold); ps != 1 {
		t.Errorf("degenerate density should sprint always, ps = %v", ps)
	}
}

func TestSprintProbability(t *testing.T) {
	f := dist.MustDiscrete([]float64{1, 2, 3, 4}, []float64{1, 1, 1, 1})
	if got := SprintProbability(f, 2.5); !almost(got, 0.5, 1e-12) {
		t.Errorf("ps = %v", got)
	}
	if got := SprintProbability(f, 0); got != 1 {
		t.Errorf("ps below support = %v", got)
	}
	if got := SprintProbability(f, 10); got != 0 {
		t.Errorf("ps above support = %v", got)
	}
}

func TestActiveFractionIdentity(t *testing.T) {
	// pA = (1-pc)/(1-pc+ps); Table 2 values with ps = 0.5 give 0.5.
	if got := ActiveFraction(0.5, 0.5); !almost(got, 0.5, 1e-12) {
		t.Errorf("pA = %v", got)
	}
	if got := ActiveFraction(0, 0.5); got != 1 {
		t.Errorf("never-sprint pA = %v", got)
	}
	if got := ActiveFraction(1, 0.5); !almost(got, 1.0/3, 1e-12) {
		t.Errorf("greedy pA = %v", got)
	}
	if ActiveFraction(0.5, 1) != 0 || ActiveFraction(0, 1) != 1 {
		t.Error("absorbing cooling cases wrong")
	}
}

func TestExpectedSprintersEq10(t *testing.T) {
	// Threshold at median: ps = 0.5, pA = 0.5, N = 1000 => nS = 250.
	if got := expectedSprinters(uniformDensity(1, 5, 100), 3, 0.5, 1000); !almost(got, 250, 5) {
		t.Errorf("nS = %v, want ~250", got)
	}
	// The solver's per-class outcome obeys Eq. (10) at its own threshold.
	cfg := testConfig()
	class := AgentClass{Name: "u", Count: 400, Density: uniformDensity(1, 5, 100)}
	var out ClassOutcome
	if err := solveClass(&class, 0.1, cfg, &out); err != nil {
		t.Fatal(err)
	}
	ps := class.Density.TailProb(out.Threshold)
	if out.SprintProb != ps || out.ActiveFrac != ActiveFraction(ps, cfg.Pc) {
		t.Errorf("ps, pA = %v, %v; want %v, %v", out.SprintProb, out.ActiveFrac, ps, ActiveFraction(ps, cfg.Pc))
	}
	if want := expectedSprinters(class.Density, out.Threshold, cfg.Pc, class.Count); out.ExpectedSprinters != want {
		t.Errorf("class nS = %v, want %v", out.ExpectedSprinters, want)
	}
}

// expectedSprinters is Eq. (10), nS = ps * pA * N, computed from a
// density and threshold independently of the solver.
func expectedSprinters(f *dist.Discrete, threshold, pc float64, n int) float64 {
	ps := f.TailProb(threshold)
	return ps * ActiveFraction(ps, pc) * float64(n)
}

// Property: the Bellman threshold is always within the density's utility
// range scaled sensibly: non-negative and no greater than the maximum
// utility (sprinting on the best epoch is always rational when free).
func TestThresholdBoundedProperty(t *testing.T) {
	cfg := testConfig()
	f := func(seed uint32) bool {
		r := stats.NewRNG(uint64(seed))
		n := r.Intn(30) + 2
		vals := make([]float64, n)
		ws := make([]float64, n)
		for i := range vals {
			vals[i] = r.Range(1, 15)
			ws[i] = r.Float64() + 0.01
		}
		d, err := dist.NewDiscrete(vals, ws)
		if err != nil {
			return false
		}
		ptrip := r.Float64()
		v, err := SolveBellman(d, ptrip, cfg)
		if err != nil {
			return false
		}
		_, hi := d.Support()
		return v.Threshold >= 0 && v.Threshold <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBellmanIndependentOfTripModelScale(t *testing.T) {
	// The DP depends only on ptrip, not on the trip model object.
	f := bimodalDensity()
	cfg1 := testConfig()
	cfg2 := testConfig()
	cfg2.Trip = power.LinearTripModel{NMin: 1, NMax: 2}
	v1, err := SolveBellman(f, 0.3, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := SolveBellman(f, 0.3, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Threshold != v2.Threshold {
		t.Error("threshold depended on trip model rather than ptrip")
	}
}
