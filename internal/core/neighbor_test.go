package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"sprintgame/internal/dist"
	"sprintgame/internal/power"
)

// nearMiss returns the instance with every class count scaled by factor
// (a "same game, drifted population" neighbour of classes/cfg).
func nearMiss(classes []AgentClass, cfg Config, factor float64) ([]AgentClass, Config) {
	near := make([]AgentClass, len(classes))
	total := 0
	for i, c := range classes {
		c.Count = int(math.Round(float64(c.Count) * factor))
		if c.Count <= 0 {
			c.Count = 1
		}
		near[i] = c
		total += c.Count
	}
	cfg.N = total
	return near, cfg
}

func TestFamilyKeyCountInvariant(t *testing.T) {
	classes, cfg := cacheInstance(t, 0, 40)

	fam := FamilyKey(classes, cfg)
	near, nearCfg := nearMiss(classes, cfg, 1.25)
	if FamilyKey(near, nearCfg) != fam {
		t.Error("count change moved the instance out of its family")
	}
	if SolveKey(near, nearCfg) == SolveKey(classes, cfg) {
		t.Error("count change did not change the exact key")
	}

	// Semantic changes place the instance in a different family.
	otherDensity, _ := cacheInstance(t, 0.5, 40)
	if FamilyKey(otherDensity, cfg) == fam {
		t.Error("different density stayed in the family")
	}
	renamed := []AgentClass{{Name: "other", Count: classes[0].Count, Density: classes[0].Density}}
	if FamilyKey(renamed, cfg) == fam {
		t.Error("different class name stayed in the family")
	}
	mod := cfg
	mod.Pc += 0.01
	if FamilyKey(classes, mod) == fam {
		t.Error("different Pc stayed in the family")
	}
	mod = cfg
	mod.Trip = power.LinearTripModel{NMin: 17, NMax: 48}
	if FamilyKey(classes, mod) == fam {
		t.Error("different trip model stayed in the family")
	}
}

// TestFamilyKeyToleratesPoolingNoise pins the quantized atom hashing:
// the coordinator re-pools class densities whenever the population
// changes, so the "same" density re-accumulated over 100 vs 102
// identical agents differs in its atoms' last mantissa bits. Those two
// pools must land in one family (or the neighbour tier never fires on
// the live serving path), while densities differing above the
// quantization grain must not.
func TestFamilyKeyToleratesPoolingNoise(t *testing.T) {
	values := []float64{1, 2, 6}
	base := []float64{0.5, 0.3, 0.2}
	// pool(n) mimics coordinator pooling of n identical agent profiles:
	// each atom weight is base/n accumulated n times, which is base plus
	// n-dependent rounding noise.
	pool := func(n int) *dist.Discrete {
		w := make([]float64, len(base))
		for i, b := range base {
			s := 0.0
			for j := 0; j < n; j++ {
				s += b / float64(n)
			}
			w[i] = s
		}
		d, err := dist.NewDiscrete(values, w)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cfg := DefaultConfig()
	a := []AgentClass{{Name: "decision", Count: 100, Density: pool(100)}}
	b := []AgentClass{{Name: "decision", Count: 102, Density: pool(102)}}
	if FamilyKey(a, cfg) != FamilyKey(b, cfg) {
		t.Error("float pooling noise split a re-pooled density out of its family")
	}

	// A real density change — above the 9-significant-digit grain —
	// still separates families.
	far, err := dist.NewDiscrete(values, []float64{0.5 + 1e-6, 0.3 - 1e-6, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	c := []AgentClass{{Name: "decision", Count: 100, Density: far}}
	if FamilyKey(a, cfg) == FamilyKey(c, cfg) {
		t.Error("materially different density stayed in the family")
	}

	// The quantizer itself: one-ulp noise straddling a power of two (the
	// exact case bit-masking would miss) collapses, real differences
	// survive, and specials pass through.
	if famQuantize(0.49999999999999994) != famQuantize(0.5000000000000002) {
		t.Error("ulp noise across 0.5 survived quantization")
	}
	if famQuantize(0.5) == famQuantize(0.5000001) {
		t.Error("1e-7 relative difference collapsed under quantization")
	}
	for _, x := range []float64{0, math.Inf(1), math.Inf(-1)} {
		if q := famQuantize(x); q != x {
			t.Errorf("famQuantize(%v) = %v, want identity", x, q)
		}
	}
	if !math.IsNaN(famQuantize(math.NaN())) {
		t.Error("famQuantize(NaN) is not NaN")
	}
}

func TestNeighborDistance(t *testing.T) {
	if d := NeighborDistance([]int{1000}, []int{1000}); d != 0 {
		t.Errorf("identical counts: distance %v, want 0", d)
	}
	if d := NeighborDistance([]int{1000}, []int{1020}); math.Abs(d-20.0/1020) > 1e-15 {
		t.Errorf("1000 vs 1020: distance %v, want %v", d, 20.0/1020)
	}
	if d := NeighborDistance([]int{60, 40}, []int{40, 60}); d != 0.4 {
		t.Errorf("swapped split: distance %v, want 0.4", d)
	}
}

// TestNeighborWarmDifferentialCatalog pins the tentpole contract on
// every catalog density: a near-miss instance seeded from its cached
// neighbour converges to the same equilibrium as a cold solve (Ptrip
// within FixedPointTol) in no more Algorithm 1 iterations.
func TestNeighborWarmDifferentialCatalog(t *testing.T) {
	for name, f := range catalogDensities(t, 250) {
		cfg := DefaultConfig()
		classes := []AgentClass{{Name: name, Count: cfg.N, Density: f}}

		cache := NewSolveCache(16, nil)
		cache.SetNeighborWarm(true)
		if _, err := cache.FindEquilibrium(classes, cfg); err != nil {
			t.Fatalf("%s: base solve: %v", name, err)
		}

		near, nearCfg := nearMiss(classes, cfg, 1.04)
		cold, err := FindEquilibrium(near, nearCfg)
		if err != nil {
			t.Fatalf("%s: cold near-miss solve: %v", name, err)
		}
		// Capture the seed the cache will use before the solve caches
		// `near` itself (after which it would be its own neighbour).
		seed := cache.NeighborSeed(near, nearCfg)
		if seed == nil {
			t.Fatalf("%s: no seed for the near-miss instance", name)
		}
		warm, err := cache.FindEquilibrium(near, nearCfg)
		if err != nil {
			t.Fatalf("%s: warm near-miss solve: %v", name, err)
		}
		// The cache's warm solve is exactly a serial solve from that seed.
		if serial, err := FindEquilibriumWarm(near, nearCfg, seed); err != nil {
			t.Fatalf("%s: serial warm solve: %v", name, err)
		} else if !reflect.DeepEqual(warm, serial) {
			t.Errorf("%s: cached neighbour-warm solve differs from serial warm solve", name)
		}
		st := cache.Stats()
		if st.NeighborWarms != 1 {
			t.Fatalf("%s: NeighborWarms = %d, want 1", name, st.NeighborWarms)
		}
		if d := math.Abs(warm.Ptrip - cold.Ptrip); d > cfg.FixedPointTol {
			t.Errorf("%s: warm Ptrip drifts %.3e from cold (> FixedPointTol %g)", name, d, cfg.FixedPointTol)
		}
		for i := range cold.Classes {
			dc, dw := cold.Classes[i], warm.Classes[i]
			if d := math.Abs(dw.Threshold - dc.Threshold); d > 1e-4*(1+math.Abs(dc.Threshold)) {
				t.Errorf("%s: class %s threshold drifts %.3e (cold %v, warm %v)",
					name, dc.Name, d, dc.Threshold, dw.Threshold)
			}
		}
		if !warm.Converged || !cold.Converged {
			t.Errorf("%s: converged: warm %v cold %v", name, warm.Converged, cold.Converged)
		}
		if warm.Iterations > cold.Iterations {
			t.Errorf("%s: warm start used %d iterations vs cold %d", name, warm.Iterations, cold.Iterations)
		}
		if st.NeighborWarmIters != int64(warm.Iterations) {
			t.Errorf("%s: NeighborWarmIters = %d, want %d", name, st.NeighborWarmIters, warm.Iterations)
		}
	}
}

// TestNeighborWarmOffByDefault: without SetNeighborWarm the cache never
// seeds, so a near-miss solve is bit-identical to a cold one.
func TestNeighborWarmOffByDefault(t *testing.T) {
	classes, cfg := cacheInstance(t, 0, 40)
	cache := NewSolveCache(16, nil)
	if _, err := cache.FindEquilibrium(classes, cfg); err != nil {
		t.Fatal(err)
	}
	near, nearCfg := nearMiss(classes, cfg, 1.05)
	got, err := cache.FindEquilibrium(near, nearCfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := FindEquilibrium(near, nearCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cold) {
		t.Error("disabled neighbour warming perturbed the solve")
	}
	if st := cache.Stats(); st.NeighborWarms != 0 {
		t.Errorf("NeighborWarms = %d, want 0", st.NeighborWarms)
	}
}

// TestNeighborDifferentFamilyNeverSeeds: instances that differ in
// anything but counts — density, class name, game parameters — must not
// donate seeds, however close their count vectors.
func TestNeighborDifferentFamilyNeverSeeds(t *testing.T) {
	classes, cfg := cacheInstance(t, 0, 40)
	cache := NewSolveCache(16, nil)
	cache.SetNeighborWarm(true)
	if _, err := cache.FindEquilibrium(classes, cfg); err != nil {
		t.Fatal(err)
	}

	otherDensity, _ := cacheInstance(t, 0.5, 40)
	if seed := cache.NeighborSeed(otherDensity, cfg); seed != nil {
		t.Error("different density drew a seed from a foreign family")
	}
	renamed := []AgentClass{{Name: "other", Count: classes[0].Count, Density: classes[0].Density}}
	if seed := cache.NeighborSeed(renamed, cfg); seed != nil {
		t.Error("different class name drew a seed from a foreign family")
	}
	mod := cfg
	mod.Damping = 0.5
	if seed := cache.NeighborSeed(classes, mod); seed != nil {
		t.Error("different damping drew a seed from a foreign family")
	}

	// Same family but outside the distance threshold: no seed either.
	far, farCfg := nearMiss(classes, cfg, 2.0)
	if seed := cache.NeighborSeed(far, farCfg); seed != nil {
		t.Error("neighbour beyond the distance threshold donated a seed")
	}
	// And a solve of the far instance cold-starts (no warm counted).
	if _, err := cache.FindEquilibrium(far, farCfg); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.NeighborWarms != 0 {
		t.Errorf("NeighborWarms = %d, want 0", st.NeighborWarms)
	}
}

// TestNeighborEvictionRemovesFromIndex: an instance evicted by the LRU
// bound must stop seeding immediately — a stale index entry would hand
// out equilibria the cache no longer owns.
func TestNeighborEvictionRemovesFromIndex(t *testing.T) {
	classes, cfg := cacheInstance(t, 0, 40)
	cache := NewSolveCache(2, nil)
	cache.SetNeighborWarm(true)
	if _, err := cache.FindEquilibrium(classes, cfg); err != nil {
		t.Fatal(err)
	}
	near, nearCfg := nearMiss(classes, cfg, 1.05)
	if seed := cache.NeighborSeed(near, nearCfg); seed == nil {
		t.Fatal("cached instance did not seed its near miss")
	}

	// Two foreign-family solves push the donor out of the capacity-2 LRU.
	for _, shift := range []float64{0.5, 1.5} {
		other, otherCfg := cacheInstance(t, shift, 40)
		if _, err := cache.FindEquilibrium(other, otherCfg); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Contains(SolveKey(classes, cfg)) {
		t.Fatal("donor was not evicted; test setup broken")
	}
	if seed := cache.NeighborSeed(near, nearCfg); seed != nil {
		t.Error("evicted instance still donates seeds (stale index entry)")
	}
}

// TestNeighborSeedDeterministicTieBreak: two donors at the same distance
// must resolve by lowest exact key, so donor choice is reproducible
// regardless of insertion order.
func TestNeighborSeedDeterministicTieBreak(t *testing.T) {
	a, cfgA := cacheInstance(t, 0, 40)
	b, _ := cacheInstance(t, 0.5, 40)
	two := func(ca, cb int) ([]AgentClass, Config) {
		cfg := cfgA
		cfg.N = ca + cb
		return []AgentClass{
			{Name: "one", Count: ca, Density: a[0].Density},
			{Name: "two", Count: cb, Density: b[0].Density},
		}, cfg
	}
	donorX, cfgX := two(60, 40)
	donorY, cfgY := two(40, 60)
	query, cfgQ := two(50, 50)

	// Both donors sit at NeighborDistance 0.2 from the query; widen the
	// threshold so both qualify and only the tie-break decides.
	solve := func(cache *SolveCache, cl []AgentClass, c Config) *Equilibrium {
		t.Helper()
		eq, err := cache.FindEquilibrium(cl, c)
		if err != nil {
			t.Fatal(err)
		}
		return eq
	}
	keyX, keyY := SolveKey(donorX, cfgX), SolveKey(donorY, cfgY)
	if keyX == keyY {
		t.Fatal("donors share a key; test setup broken")
	}

	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		cache := NewSolveCache(16, nil)
		cache.SetNeighborWarm(true)
		cache.SetNeighborMaxDistance(0.5)
		eqs := [2]*Equilibrium{}
		donors := [2]struct {
			cl  []AgentClass
			cfg Config
		}{{donorX, cfgX}, {donorY, cfgY}}
		for _, i := range order {
			eqs[i] = solve(cache, donors[i].cl, donors[i].cfg)
		}
		want := eqs[0] // donor X
		if keyY < keyX {
			want = eqs[1]
		}
		seed := cache.NeighborSeed(query, cfgQ)
		if seed == nil {
			t.Fatal("tie-break query drew no seed")
		}
		// The Ptrip seed approaches from above: donor Ptrip + 2*distance.
		if seed.Ptrip != math.Min(1, want.Ptrip+2*0.2) {
			t.Errorf("insertion order %v: seed came from the higher-key donor", order)
		}
	}
}

// TestNeighborBatchMixedWarmColdDifferential: SolveBatch lanes with a
// mix of warm and cold starts must stay byte-identical to their serial
// FindEquilibriumWarm counterparts.
func TestNeighborBatchMixedWarmColdDifferential(t *testing.T) {
	densities := catalogDensities(t, 250)
	var reqs []SolveRequest
	for name, f := range densities {
		cfg := DefaultConfig()
		classes := []AgentClass{{Name: name, Count: cfg.N, Density: f}}
		base, err := FindEquilibrium(classes, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		near, nearCfg := nearMiss(classes, cfg, 1.03)
		// One warm lane seeded from the base solve, one cold lane of the
		// same near-miss instance... solved under a different name so the
		// lanes stay distinct instances.
		reqs = append(reqs, SolveRequest{
			Classes: near, Cfg: nearCfg,
			Warm: &WarmStart{Ptrip: base.Ptrip},
		})
		reqs = append(reqs, SolveRequest{Classes: near, Cfg: nearCfg})
	}

	batch := SolveBatch(reqs)
	for i, r := range reqs {
		serial, err := FindEquilibriumWarm(r.Classes, r.Cfg, r.Warm)
		if err != nil {
			t.Fatalf("lane %d serial: %v", i, err)
		}
		if batch[i].Err != nil {
			t.Fatalf("lane %d batch: %v", i, batch[i].Err)
		}
		if !reflect.DeepEqual(batch[i].Eq, serial) {
			t.Errorf("lane %d (warm=%v): batch result differs from serial", i, r.Warm != nil)
		}
	}

	// Invalid warm starts draw FindEquilibriumWarm's exact errors.
	classes, cfg := cacheInstance(t, 0, 40)
	bad := SolveBatch([]SolveRequest{
		{Classes: classes, Cfg: cfg, Warm: &WarmStart{Ptrip: 1.5}},
		{Classes: classes, Cfg: cfg, Warm: &WarmStart{Ptrip: -0.1}},
	})
	_, err1 := FindEquilibriumWarm(classes, cfg, &WarmStart{Ptrip: 1.5})
	_, err2 := FindEquilibriumWarm(classes, cfg, &WarmStart{Ptrip: -0.1})
	if bad[0].Err == nil || err1 == nil || bad[0].Err.Error() != err1.Error() {
		t.Errorf("bad ptrip: batch %v, serial %v", bad[0].Err, err1)
	}
	if bad[1].Err == nil || err2 == nil || bad[1].Err.Error() != err2.Error() {
		t.Errorf("negative ptrip: batch %v, serial %v", bad[1].Err, err2)
	}
}

// TestNeighborWarmLoadedEntriesIndexOnHit: entries replayed from the
// disk tier (Warm — no class information) join the family index on
// their first hit and then donate seeds.
func TestNeighborWarmLoadedEntriesIndexOnHit(t *testing.T) {
	classes, cfg := cacheInstance(t, 0, 40)
	key := SolveKey(classes, cfg)
	eq, err := FindEquilibrium(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewSolveCache(16, nil)
	cache.SetNeighborWarm(true)
	cache.Warm(map[uint64]*Equilibrium{key: eq})
	near, nearCfg := nearMiss(classes, cfg, 1.05)
	if seed := cache.NeighborSeed(near, nearCfg); seed != nil {
		t.Fatal("warm-loaded entry donated a seed before any hit revealed its classes")
	}
	if _, err := cache.FindEquilibrium(classes, cfg); err != nil { // the revealing hit
		t.Fatal(err)
	}
	if seed := cache.NeighborSeed(near, nearCfg); seed == nil {
		t.Error("hit entry did not join the family index")
	}
}

// TestSolveCacheHitAdmitRace hammers the lookup hit path against Warm
// and Admit, which overwrite the cached *Equilibrium in place under the
// lock. The hit path must capture the pointer before unlocking; run
// with -race.
func TestSolveCacheHitAdmitRace(t *testing.T) {
	classes, cfg := cacheInstance(t, 0, 40)
	key := SolveKey(classes, cfg)
	cache := NewSolveCache(8, nil)
	eq1, err := cache.FindEquilibrium(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eq2, err := FindEquilibrium(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const iters = 500
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := cache.FindEquilibrium(classes, cfg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if (i+w)%2 == 0 {
					cache.Admit(map[uint64]*Equilibrium{key: eq2})
				} else {
					cache.Warm(map[uint64]*Equilibrium{key: eq1})
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkNeighborWarmSolve measures what neighbour seeding saves on a
// near-miss solve: the cold sub-benchmark solves the drifted instance
// from Ptrip = 1, the warm one from the cached neighbour's seed. Both
// report Algorithm 1 iterations as iters/op, which bench.sh gates
// (warm must not exceed cold).
func BenchmarkNeighborWarmSolve(b *testing.B) {
	classes, _ := cacheInstance(b, 0, 250)
	cfg := DefaultConfig() // paper trip model at N = 1000
	classes[0].Count = cfg.N
	base, err := FindEquilibrium(classes, cfg)
	if err != nil {
		b.Fatal(err)
	}
	near, nearCfg := nearMiss(classes, cfg, 1.005)
	d := NeighborDistance(classCounts(classes), classCounts(near))
	seed := &WarmStart{Ptrip: math.Min(1, base.Ptrip+2*d)}

	b.Run("cold", func(b *testing.B) {
		iters := 0
		for i := 0; i < b.N; i++ {
			eq, err := FindEquilibrium(near, nearCfg)
			if err != nil {
				b.Fatal(err)
			}
			iters = eq.Iterations
		}
		b.ReportMetric(float64(iters), "iters/op")
	})
	b.Run("warm", func(b *testing.B) {
		iters := 0
		for i := 0; i < b.N; i++ {
			eq, err := FindEquilibriumWarm(near, nearCfg, seed)
			if err != nil {
				b.Fatal(err)
			}
			iters = eq.Iterations
		}
		b.ReportMetric(float64(iters), "iters/op")
	})
}
