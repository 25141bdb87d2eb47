package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Neighbour-seeded warm solves. An exact SolveKey miss usually is not a
// cold instance: clusters re-solve the same workload mix at slightly
// different chip counts (a rack loses a board, a class's population
// drifts), and the equilibrium of the near-miss instance sits closer to
// a cached one than the paper's pessimistic Ptrip = 1 initialization
// does. The cache therefore keeps, alongside the exact LRU, a
// per-family index: FamilyKey hashes everything SolveKey hashes except
// the per-class counts (and cfg.N, which is their sum), so two
// instances share a family exactly when they have the same classes,
// densities, and game parameters and differ only in how many agents
// each class holds. On an exact miss with neighbour
// warming enabled, the nearest same-family instance within
// NeighborMaxDistance seeds FindEquilibriumWarm with its equilibrium's
// Ptrip instead of cold-starting.
//
// Seeding is approximate warmth, not approximate answers. The sprinting
// game can hold multiple equilibria, and Algorithm 1's Ptrip = 1 start
// is a selection rule: descending from above every fixed point, the
// iteration lands on the largest one. A donor's Ptrip can sit
// *below* the near-miss instance's equilibrium (population drift near a
// tangent bifurcation moves the fixed point a lot), and seeding there
// verbatim would climb into a lower basin and return a different — if
// individually converged — equilibrium. The seed therefore approaches
// from above like the cold start does: Ptrip is the donor's plus a
// safety margin of twice the neighbour distance (clamped to 1), which
// empirically dominates the equilibrium shift between neighbours, so
// the warm descent passes through the same final stretch as the cold
// one and stops at the same fixed point — within FixedPointTol, pinned
// by differential tests across every catalog density. The choice of
// donor is deterministic — smallest distance first, lowest exact key on
// ties — so runs are reproducible regardless of map iteration or solve
// interleaving.

// DefaultNeighborMaxDistance is the seeding threshold used by
// SetNeighborWarm: the maximum L1 distance between normalized count
// vectors (see NeighborDistance) at which a same-family neighbour is
// close enough to seed a solve. 0.25 admits count drifts of up to a
// quarter of the population — far beyond the few-percent drifts
// incremental re-solves produce — while rejecting instances different
// enough that a seed could start outside the fixed point's basin.
const DefaultNeighborMaxDistance = 0.25

// famQuantize rounds a density atom coordinate to 9 significant decimal
// digits before hashing. Pooled densities are accumulated floats — the
// coordinator re-pools per-agent weights every time the population
// changes, so the "same" class density differs in its last few mantissa
// bits between 100 and 102 agents — and hashing exact bits would break
// every family match on the live serving path. Nine digits is ~10^6
// coarser than that accumulation noise yet far below any density
// difference that matters to the seed: two densities agreeing to 1e-9
// everywhere give equilibria closer than the from-above clamp's margin,
// so a quantization-merged family can never seed outside the basin.
func famQuantize(x float64) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	exp := math.Floor(math.Log10(math.Abs(x)))
	scale := math.Pow(10, 8-exp)
	return math.Round(x*scale) / scale
}

// FamilyKey returns the canonical FNV-1a hash of a game instance's
// family: the class names and density atoms in order (atom coordinates
// quantized to 9 significant digits, absorbing float pooling noise),
// and every semantic Config field SolveKey hashes except cfg.N —
// per-class counts (whose sum N is) are exactly what members of one
// family differ in. Two instances with equal FamilyKey but distinct
// SolveKey are neighbours: same game, different population split.
func FamilyKey(classes []AgentClass, cfg Config) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	u64(uint64(len(classes)))
	for _, cl := range classes {
		h.Write([]byte(cl.Name))
		h.Write([]byte{0})
		if cl.Density == nil {
			u64(0)
			continue
		}
		u64(uint64(cl.Density.Len()))
		for i := 0; i < cl.Density.Len(); i++ {
			x, p := cl.Density.Atom(i)
			f64(famQuantize(x))
			f64(famQuantize(p))
		}
	}

	f64(cfg.Pc)
	f64(cfg.Pr)
	f64(cfg.Delta)
	f64(cfg.FixedPointTol)
	u64(uint64(cfg.MaxFixedPointIter))
	f64(cfg.Damping)
	tripFingerprint(cfg.Trip, f64)
	return h.Sum64()
}

// NeighborDistance is the metric the index ranks donors by: the L1
// distance between two count vectors normalized by the larger total,
// sum_i |a_i - b_i| / max(sum a, sum b). Same-split instances at
// different scale score their relative population difference; same-N
// instances score the fraction of agents that changed class. The vectors
// must be the same length (one family implies one class list).
func NeighborDistance(a, b []int) float64 {
	ta, tb := 0, 0
	for _, v := range a {
		ta += v
	}
	for _, v := range b {
		tb += v
	}
	den := ta
	if tb > den {
		den = tb
	}
	if den <= 0 {
		return math.Inf(1)
	}
	sum := 0.0
	for i := range a {
		sum += math.Abs(float64(a[i] - b[i]))
	}
	return sum / float64(den)
}

// neighborRef is one indexed instance of a family: its exact key and
// count vector (the only coordinates family members differ in).
type neighborRef struct {
	key    uint64
	counts []int
}

// neighborIndex maps family keys to their cached instances. All methods
// are called with the owning SolveCache's mutex held; the index tracks
// the LRU exactly (entries are added when an instance with known classes
// is cached and removed on eviction), so every ref's key resolves in
// c.entries.
type neighborIndex struct {
	families map[uint64][]neighborRef
}

func newNeighborIndex() *neighborIndex {
	return &neighborIndex{families: make(map[uint64][]neighborRef)}
}

// add files key under fam. The caller ensures key is not already filed.
func (ix *neighborIndex) add(fam, key uint64, counts []int) {
	ix.families[fam] = append(ix.families[fam], neighborRef{key: key, counts: counts})
}

// remove drops key from fam's instances (no-op when absent).
func (ix *neighborIndex) remove(fam, key uint64) {
	refs := ix.families[fam]
	for i := range refs {
		if refs[i].key == key {
			refs[i] = refs[len(refs)-1]
			refs = refs[:len(refs)-1]
			if len(refs) == 0 {
				delete(ix.families, fam)
			} else {
				ix.families[fam] = refs
			}
			return
		}
	}
}

// nearest returns the family member closest to counts within maxDist
// and its distance: smallest NeighborDistance first, lowest key on ties
// (the slice order depends on insertion and eviction history, so
// ranking by key keeps donor choice deterministic across runs). ok is
// false when the family has no member within the threshold.
func (ix *neighborIndex) nearest(fam uint64, counts []int, maxDist float64) (key uint64, dist float64, ok bool) {
	dist = math.Inf(1)
	for _, ref := range ix.families[fam] {
		if len(ref.counts) != len(counts) {
			continue // same 64-bit family hash, different shape: collision
		}
		d := NeighborDistance(ref.counts, counts)
		if d > maxDist {
			continue
		}
		if d < dist || (d == dist && ok && ref.key < key) {
			dist, key, ok = d, ref.key, true
		}
	}
	return key, dist, ok
}

// classCounts extracts the count vector of a class list.
func classCounts(classes []AgentClass) []int {
	counts := make([]int, len(classes))
	for i := range classes {
		counts[i] = classes[i].Count
	}
	return counts
}

// SetNeighborWarm switches neighbour-seeded warm solves on or off (off
// is the default: a cold start exactly reproduces the paper's Algorithm
// 1). While on, cached instances solved or hit through this cache are
// indexed by FamilyKey, and an exact miss whose family holds a neighbour
// within DefaultNeighborMaxDistance is solved from that neighbour's
// equilibrium via FindEquilibriumWarm instead of from Ptrip = 1.
// Entries loaded by Warm or Admit carry no class information and join
// the index on their first hit. A nil cache ignores the call.
func (c *SolveCache) SetNeighborWarm(on bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if on && c.neighbors == nil {
		c.neighbors = newNeighborIndex()
		c.neighborMaxDist = DefaultNeighborMaxDistance
	}
	c.neighborWarm = on
}

// SetNeighborMaxDistance overrides the seeding threshold (see
// NeighborDistance). Non-positive values restore the default. A nil
// cache ignores the call.
func (c *SolveCache) SetNeighborMaxDistance(d float64) {
	if c == nil {
		return
	}
	if d <= 0 {
		d = DefaultNeighborMaxDistance
	}
	c.mu.Lock()
	c.neighborMaxDist = d
	c.mu.Unlock()
}

// NeighborSeed returns a warm start from the cached neighbour nearest to
// (classes, cfg), or nil when neighbour warming is off or no same-family
// instance sits within the distance threshold. Callers that solve
// outside the cache — cluster.PresolveEquilibria batching its misses —
// use this to seed their own SolveBatch requests. The cache's counters
// are not advanced; the caller owns the solve.
func (c *SolveCache) NeighborSeed(classes []AgentClass, cfg Config) *WarmStart {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.neighborWarm {
		return nil
	}
	return c.neighborSeedLocked(FamilyKey(classes, cfg), classCounts(classes))
}

// neighborSeedLocked builds a WarmStart from fam's nearest member within
// the threshold, or nil. Caller holds c.mu with c.neighborWarm set.
//
// The Ptrip seed is the donor's equilibrium Ptrip plus twice the
// neighbour distance, clamped to 1: the warm descent must approach the
// fixed point from above like the cold Ptrip = 1 start, or it could
// settle on a lower equilibrium of a multi-equilibrium instance (see
// the package comment). The margin costs a handful of iterations on
// well-behaved instances and buys equilibrium-selection fidelity on the
// rest.
func (c *SolveCache) neighborSeedLocked(fam uint64, counts []int) *WarmStart {
	key, dist, ok := c.neighbors.nearest(fam, counts, c.neighborMaxDist)
	if !ok {
		return nil
	}
	el, ok := c.entries[key]
	if !ok {
		return nil // index and LRU out of sync; never expected
	}
	return &WarmStart{Ptrip: math.Min(1, el.Value.(*cacheEntry).eq.Ptrip+2*dist)}
}

// IndexNeighbor files an already-cached instance into the family index
// so it can seed later near-miss solves. Admit and Warm insert entries
// from bare (key, equilibrium) pairs with no class information; a
// caller that does know the classes — cluster.PresolveEquilibria after
// admitting its batch — registers them here instead of waiting for a
// first hit to reveal them. No-op when neighbour warming is off, the
// key is not cached, or the entry is already indexed.
func (c *SolveCache) IndexNeighbor(key uint64, classes []AgentClass, cfg Config) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.neighborWarm {
		return
	}
	el, ok := c.entries[key]
	if !ok {
		return
	}
	c.indexNeighborLocked(el.Value.(*cacheEntry), FamilyKey(classes, cfg), classCounts(classes))
}

// indexNeighborLocked files an already-cached entry into the family
// index. Caller holds c.mu with c.neighborWarm set; fam and counts are
// the entry's FamilyKey and count vector.
func (c *SolveCache) indexNeighborLocked(ent *cacheEntry, fam uint64, counts []int) {
	if ent.indexed {
		return
	}
	ent.indexed = true
	ent.fam = fam
	c.neighbors.add(fam, ent.key, counts)
}
