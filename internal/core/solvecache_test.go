package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"sprintgame/internal/dist"
	"sprintgame/internal/power"
	"sprintgame/internal/telemetry"
)

// cacheInstance builds a small but non-trivial game instance; shift
// displaces the density support so distinct instances hash apart.
func cacheInstance(tb testing.TB, shift float64, atoms int) ([]AgentClass, Config) {
	tb.Helper()
	values := make([]float64, atoms)
	weights := make([]float64, atoms)
	for i := range values {
		values[i] = 1 + shift + 7*float64(i)/float64(atoms-1)
		weights[i] = 1 + float64(i%5)
	}
	d, err := dist.NewDiscrete(values, weights)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.N = 64
	cfg.Trip = power.LinearTripModel{NMin: 16, NMax: 48}
	return []AgentClass{{Name: "synthetic", Count: cfg.N, Density: d}}, cfg
}

func TestSolveKeyCanonical(t *testing.T) {
	classes, cfg := cacheInstance(t, 0, 40)
	k1 := SolveKey(classes, cfg)
	k2 := SolveKey(classes, cfg)
	if k1 != k2 {
		t.Fatalf("same instance hashed differently: %x vs %x", k1, k2)
	}

	// Telemetry sinks are non-semantic and must not perturb the key.
	withSinks := cfg
	withSinks.Metrics = telemetry.NewRegistry()
	if SolveKey(classes, withSinks) != k1 {
		t.Error("metrics sink changed the key")
	}

	// A functionally identical trip model (instrumented wrapper) keys
	// the same.
	wrapped := cfg
	wrapped.Trip = power.Instrument(cfg.Trip, telemetry.NewRegistry(), nil)
	if SolveKey(classes, wrapped) != k1 {
		t.Error("instrumented trip model changed the key")
	}

	// Semantic changes must change the key.
	perturb := []func(*Config){
		func(c *Config) { c.Pc += 0.01 },
		func(c *Config) { c.Pr += 0.01 },
		func(c *Config) { c.Delta = 0.98 },
		func(c *Config) { c.Damping = 0.5 },
		func(c *Config) { c.Trip = power.LinearTripModel{NMin: 17, NMax: 48} },
	}
	for i, f := range perturb {
		mod := cfg
		f(&mod)
		if SolveKey(classes, mod) == k1 {
			t.Errorf("perturbation %d did not change the key", i)
		}
	}
	otherClasses, _ := cacheInstance(t, 0.5, 40)
	if SolveKey(otherClasses, cfg) == k1 {
		t.Error("different density did not change the key")
	}
	renamed := []AgentClass{{Name: "other", Count: classes[0].Count, Density: classes[0].Density}}
	if SolveKey(renamed, cfg) == k1 {
		t.Error("different class name did not change the key")
	}
}

func TestSolveCacheHitReturnsMemoizedResult(t *testing.T) {
	classes, cfg := cacheInstance(t, 0, 40)
	cache := NewSolveCache(8, nil)

	eq1, err := cache.FindEquilibrium(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eq2, err := cache.FindEquilibrium(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eq1 != eq2 {
		t.Error("hit did not return the memoized equilibrium pointer")
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, size 1", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}

	// The memoized solution matches a direct solve.
	direct, err := FindEquilibrium(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Ptrip != eq1.Ptrip || direct.Classes[0].Threshold != eq1.Classes[0].Threshold {
		t.Errorf("cached solve diverges from direct solve: %v vs %v", eq1.Ptrip, direct.Ptrip)
	}
}

func TestSolveCacheNilIsDisabled(t *testing.T) {
	classes, cfg := cacheInstance(t, 0, 40)
	var cache *SolveCache
	eq, err := cache.FindEquilibrium(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eq == nil || !eq.Converged {
		t.Fatal("nil cache should fall through to a real solve")
	}
	if st := cache.Stats(); st != (SolveCacheStats{}) {
		t.Errorf("nil cache stats = %+v, want zero", st)
	}
	if cache.Len() != 0 {
		t.Error("nil cache should report length 0")
	}
}

func TestSolveCacheErrorsAreNotCached(t *testing.T) {
	classes, cfg := cacheInstance(t, 0, 40)
	cfg.N = classes[0].Count + 1 // count mismatch: FindEquilibrium errors
	cache := NewSolveCache(8, nil)
	if _, err := cache.FindEquilibrium(classes, cfg); err == nil {
		t.Fatal("expected count-mismatch error")
	}
	if _, err := cache.FindEquilibrium(classes, cfg); err == nil {
		t.Fatal("expected count-mismatch error on retry")
	}
	st := cache.Stats()
	if st.Misses != 2 || st.Size != 0 {
		t.Errorf("stats = %+v, want 2 misses and an empty cache (errors not cached)", st)
	}
}

func TestSolveCacheLRUEvictionOrder(t *testing.T) {
	instA, cfg := cacheInstance(t, 0, 30)
	instB, _ := cacheInstance(t, 0.25, 30)
	instC, _ := cacheInstance(t, 0.5, 30)
	cache := NewSolveCache(2, nil)

	solve := func(classes []AgentClass) {
		t.Helper()
		if _, err := cache.FindEquilibrium(classes, cfg); err != nil {
			t.Fatal(err)
		}
	}
	solve(instA) // cache: [A]
	solve(instB) // cache: [B A]
	solve(instA) // touch A: [A B]
	solve(instC) // evicts B (least recently used): [C A]

	st := cache.Stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, size 2", st)
	}
	missesBefore := st.Misses
	solve(instA) // still cached
	solve(instC) // still cached
	if got := cache.Stats().Misses; got != missesBefore {
		t.Errorf("A and C should hit, but misses went %d -> %d", missesBefore, got)
	}
	solve(instB) // evicted, must re-solve
	if got := cache.Stats().Misses; got != missesBefore+1 {
		t.Errorf("B should have been the LRU eviction; misses = %d, want %d", got, missesBefore+1)
	}
}

func TestSolveCacheSingleflight(t *testing.T) {
	classes, cfg := cacheInstance(t, 0, 60)
	metrics := telemetry.NewRegistry()
	cfg.Metrics = metrics // counts solver.runs per actual FindEquilibrium
	cache := NewSolveCache(8, metrics)

	const callers = 64
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	results := make([]*Equilibrium, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			results[i], errs[i] = cache.FindEquilibrium(classes, cfg)
		}(i)
	}
	start.Done()
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different equilibrium instance", i)
		}
	}
	st := cache.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 solve for %d concurrent identical requests", st.Misses, callers)
	}
	if st.Hits+st.Coalesced != callers-1 {
		t.Errorf("hits+coalesced = %d, want %d", st.Hits+st.Coalesced, callers-1)
	}
	if runs := metrics.Counter("solver.runs").Value(); runs != 1 {
		t.Errorf("solver.runs = %d, want 1", runs)
	}
	if metrics.Counter("solvecache.misses").Value() != 1 {
		t.Error("solvecache.misses metric not exported")
	}
}

// TestSolveCacheHitRunsNoSolve: a hit returns the memoized *Equilibrium
// without running Algorithm 1 — solver.runs does not move.
func TestSolveCacheHitRunsNoSolve(t *testing.T) {
	classes, cfg := cacheInstance(t, 0, 250)
	cfg.Metrics = telemetry.NewRegistry()
	runs := cfg.Metrics.Counter("solver.runs")
	cache := NewSolveCache(8, nil)
	first, err := cache.FindEquilibrium(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Value() != 1 {
		t.Fatalf("miss ran %d solves, want 1", runs.Value())
	}
	for i := 0; i < 200; i++ {
		eq, err := cache.FindEquilibrium(classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if eq != first {
			t.Fatalf("hit %d returned a different *Equilibrium", i)
		}
	}
	if runs.Value() != 1 {
		t.Errorf("200 hits moved solver.runs to %d, want 1", runs.Value())
	}
}

func BenchmarkFindEquilibriumCold(b *testing.B) {
	classes, cfg := cacheInstance(b, 0, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindEquilibrium(classes, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveCacheHit(b *testing.B) {
	classes, cfg := cacheInstance(b, 0, 250)
	cache := NewSolveCache(8, nil)
	if _, err := cache.FindEquilibrium(classes, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.FindEquilibrium(classes, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleSolveCache() {
	classes, cfg := exampleInstance()
	cache := NewSolveCache(16, nil)
	for i := 0; i < 3; i++ {
		if _, err := cache.FindEquilibrium(classes, cfg); err != nil {
			fmt.Println("solve failed:", err)
			return
		}
	}
	st := cache.Stats()
	fmt.Printf("solves=%d hits=%d\n", st.Misses, st.Hits)
	// Output: solves=1 hits=2
}

// exampleInstance is a tiny instance for ExampleSolveCache.
func exampleInstance() ([]AgentClass, Config) {
	d := dist.MustDiscrete([]float64{1, 2, 4, 6}, []float64{1, 2, 2, 1})
	cfg := DefaultConfig()
	cfg.N = 8
	cfg.Trip = power.LinearTripModel{NMin: 2, NMax: 6}
	return []AgentClass{{Name: "demo", Count: 8, Density: d}}, cfg
}

// unboundedTrip is a trip model whose breaker can always trip more
// (nMax = +Inf), with a tunable curve. Before the sample-span clamp,
// SolveKey's fingerprint sampled such models at n = 0*Inf = NaN and
// +Inf — the same degenerate points for every unbounded model — so
// distinct curves collided onto one key.
type unboundedTrip struct{ scale float64 }

func (m unboundedTrip) Ptrip(n float64) float64 {
	switch {
	case math.IsNaN(n):
		return 0
	case math.IsInf(n, 1):
		return 1
	}
	p := n / m.scale
	if p > 1 {
		return 1
	}
	return p
}

func (m unboundedTrip) Bounds() (float64, float64) { return 1, math.Inf(1) }

func TestSolveKeyUnboundedTripModelsDistinct(t *testing.T) {
	classes, cfg := cacheInstance(t, 0, 40)
	a, b := cfg, cfg
	a.Trip = unboundedTrip{scale: 100}
	b.Trip = unboundedTrip{scale: 200}
	if SolveKey(classes, a) == SolveKey(classes, b) {
		t.Error("distinct unbounded trip models collide onto one SolveKey")
	}
	// Same scale must still agree, regardless of bounds.
	c := cfg
	c.Trip = unboundedTrip{scale: 100}
	if SolveKey(classes, a) != SolveKey(classes, c) {
		t.Error("identical unbounded trip models got distinct SolveKeys")
	}
}

// TestSolveCacheRefusesUnconverged: a solve capped at MaxFixedPointIter
// is not an equilibrium, so the cache must not admit it. The miss still
// hands the result to its caller.
func TestSolveCacheRefusesUnconverged(t *testing.T) {
	classes, cfg := cacheInstance(t, 0, 40)
	cfg.MaxFixedPointIter = 1
	metrics := telemetry.NewRegistry()
	c := NewSolveCache(0, metrics)

	eq, err := c.FindEquilibrium(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eq == nil || eq.Converged {
		t.Fatalf("MaxFixedPointIter = 1 returned %+v, want an unconverged result", eq)
	}
	if c.Len() != 0 {
		t.Fatalf("unconverged miss cached (%d entries)", c.Len())
	}
	// The next lookup solves again instead of serving the capped result.
	if _, err := c.FindEquilibrium(classes, cfg); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses and no hit", st)
	}
	if got := metrics.Counter("solvecache.unconverged").Value(); got != 2 {
		t.Errorf("solvecache.unconverged = %d, want 2", got)
	}
}
