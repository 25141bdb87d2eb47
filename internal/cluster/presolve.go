package cluster

import (
	"sprintgame/internal/core"
	"sprintgame/internal/sim"
)

// PresolveStats reports what a presolve pass found and did.
type PresolveStats struct {
	// Racks is the number of racks examined.
	Racks int
	// Distinct is the number of distinct game instances across racks
	// (racks sharing a workload mix and game parameters share one).
	Distinct int
	// Cached is how many distinct instances the cache already held —
	// from an earlier run or a disk-tier warm load.
	Cached int
	// Solved is how many instances the batched pass solved and admitted.
	Solved int
	// Warmed is how many solved instances were seeded from a cached
	// neighbour's equilibrium (cache.NeighborSeed) instead of the cold
	// Ptrip = 1 start. Zero unless the cache has SetNeighborWarm on.
	Warmed int
	// Skipped counts racks whose classes could not be built plus
	// instances whose solve failed. Skipped instances are not admitted; the same
	// failure resurfaces with rack context when Run builds the policy.
	Skipped int
}

// PresolveEquilibria solves every distinct game instance a cluster run
// will need, in one batched pass, and admits the solutions into cache.
//
// EquilibriumFactory solves lazily from worker goroutines: the first
// rack to need an instance solves it alone while racks behind it
// coalesce or block. Presolving instead collects the distinct
// instances up front — racks sharing a workload mix and game
// parameters dedupe by core.SolveKey — and solves them through
// core.SolveBatch, so a heterogeneous cluster pays one cache-aware
// solve pass instead of R serial solves.
// Instances the cache already holds (including ones warm-loaded from
// the disk tier) are skipped.
//
// Admitted solutions are byte-identical to what FindEquilibrium would
// produce (SolveBatch's contract), so a presolved Run returns exactly
// the result of an unpresolved one — verified by
// TestPresolveMatchesLazySolves.
//
// A nil cache makes the pass pointless, so it is skipped entirely.
func PresolveEquilibria(cfg Config, cache *core.SolveCache) PresolveStats {
	st := PresolveStats{Racks: len(cfg.Racks)}
	if cache == nil {
		return st
	}
	seen := make(map[uint64]struct{}, len(cfg.Racks))
	var keys []uint64
	var reqs []core.SolveRequest
	var reqClasses [][]core.AgentClass
	for i := range cfg.Racks {
		simCfg := cfg.RackSimConfig(i)
		classes, err := sim.GameClasses(simCfg)
		if err != nil {
			st.Skipped++
			continue
		}
		key := core.SolveKey(classes, simCfg.Game)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		st.Distinct++
		if cache.Contains(key) {
			st.Cached++
			continue
		}
		// Neighbour warmth: a near-miss instance (same mix, drifted
		// counts) seeds its solve from the nearest cached neighbour.
		// NeighborSeed returns nil unless the cache opted in.
		warm := cache.NeighborSeed(classes, simCfg.Game)
		if warm != nil {
			st.Warmed++
		}
		keys = append(keys, key)
		reqs = append(reqs, core.SolveRequest{Classes: classes, Cfg: simCfg.Game, Warm: warm})
		reqClasses = append(reqClasses, classes)
	}
	if len(reqs) == 0 {
		return st
	}
	results := core.SolveBatch(reqs)
	entries := make(map[uint64]*core.Equilibrium, len(reqs))
	for i, r := range results {
		if r.Err != nil {
			st.Skipped++
			continue
		}
		entries[keys[i]] = r.Eq
		st.Solved++
	}
	cache.Admit(entries)
	// Admit files bare (key, equilibrium) pairs; register the classes we
	// do know so this pass's solutions can seed the next pass's
	// near-miss instances (no-op unless neighbour warming is on).
	for i, r := range results {
		if r.Err == nil {
			cache.IndexNeighbor(keys[i], reqClasses[i], reqs[i].Cfg)
		}
	}
	if m := cfg.Metrics; m != nil {
		m.Counter("cluster.presolves").Inc()
		m.Counter("cluster.presolve_solved").Add(int64(st.Solved))
		m.Counter("cluster.presolve_cached").Add(int64(st.Cached))
		m.Counter("cluster.presolve_warmed").Add(int64(st.Warmed))
	}
	return st
}
