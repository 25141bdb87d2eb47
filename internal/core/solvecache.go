package core

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"sprintgame/internal/power"
	"sprintgame/internal/telemetry"
)

// SolveCache memoizes FindEquilibrium results. Deployments re-solve the
// same instance constantly: every rack of a cluster with the same
// workload mix, every coordinator request between profile changes. The
// cache keys solutions by a canonical FNV-1a hash of the game instance
// (classes and semantic Config fields), bounds memory with an LRU, and
// coalesces concurrent solves of the same instance into a single
// FindEquilibrium call (singleflight), so a thundering herd of
// identical requests performs exactly one solve.
//
// Returned *Equilibrium values are shared between callers and MUST be
// treated as immutable.
//
// A nil *SolveCache is a valid disabled cache: FindEquilibrium falls
// through to the plain solver. SolveCache is safe for concurrent use.
type SolveCache struct {
	capacity int
	metrics  *telemetry.Registry

	hits, misses, coalesced, evictions atomic.Int64

	mu       sync.Mutex
	entries  map[uint64]*list.Element // key -> element whose Value is *cacheEntry
	order    *list.List               // front = most recently used
	inflight map[uint64]*inflightSolve

	// Disk tier (SetStore): every admitted equilibrium is written
	// through so a restarted process can Warm itself back to this
	// cache's contents. Spills happen outside mu; a failed spill costs a
	// miss after restart, never the solve.
	store               EquilibriumStore
	spills, spillErrors atomic.Int64

	// Neighbour tier (SetNeighborWarm, see neighbor.go): cached
	// instances indexed by FamilyKey so an exact miss can seed its solve
	// from the nearest same-family neighbour's equilibrium. All three
	// fields are guarded by mu; the counters are atomics.
	neighborWarm    bool
	neighborMaxDist float64
	neighbors       *neighborIndex

	neighborWarms, neighborIt atomic.Int64
}

// EquilibriumStore is the disk tier the cache writes solved equilibria
// through (see internal/persist). Implementations must be safe for
// concurrent Put.
type EquilibriumStore interface {
	Put(key uint64, eq *Equilibrium) error
}

// cacheEntry is one memoized solution. indexed marks entries filed in
// the neighbour index under fam; entries inserted by Warm/Admit carry
// no class information and stay unindexed until a hit reveals it.
type cacheEntry struct {
	key     uint64
	eq      *Equilibrium
	fam     uint64
	indexed bool
}

// inflightSolve is a solve in progress that later arrivals wait on.
type inflightSolve struct {
	done chan struct{}
	eq   *Equilibrium
	err  error
}

// DefaultSolveCacheCapacity bounds the cache when NewSolveCache is
// given a non-positive capacity. Equilibria are small (a few KB per
// class), so the default is generous.
const DefaultSolveCacheCapacity = 128

// NewSolveCache returns a cache holding up to capacity equilibria
// (DefaultSolveCacheCapacity if capacity <= 0). metrics, when non-nil,
// receives solvecache.hits / .misses / .coalesced / .evictions /
// .unconverged counters and a solvecache.size gauge.
func NewSolveCache(capacity int, metrics *telemetry.Registry) *SolveCache {
	if capacity <= 0 {
		capacity = DefaultSolveCacheCapacity
	}
	return &SolveCache{
		capacity: capacity,
		metrics:  metrics,
		entries:  make(map[uint64]*list.Element),
		order:    list.New(),
		inflight: make(map[uint64]*inflightSolve),
	}
}

// SolveCacheStats is a point-in-time view of the cache's counters.
type SolveCacheStats struct {
	Hits        int64 // lookups answered from the cache
	Misses      int64 // lookups that ran FindEquilibrium
	Coalesced   int64 // lookups that joined an in-flight solve
	Evictions   int64 // entries dropped by the LRU bound
	Spills      int64 // equilibria written through to the disk tier
	SpillErrors int64 // disk-tier writes that failed (entry stays cached)
	Size        int   // entries currently cached

	// NeighborWarms counts misses solved from a neighbour's seed instead
	// of the cold Ptrip = 1 start; NeighborWarmIters sums the Algorithm 1
	// iterations those warm solves used (compare against cold solves of
	// the same instances to measure iterations saved). Both stay zero
	// unless SetNeighborWarm is on.
	NeighborWarms     int64
	NeighborWarmIters int64
}

// HitRate returns the fraction of lookups that avoided a solve
// (hits + coalesced over all lookups), or 0 before any lookup.
func (s SolveCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// Stats returns the cache's counters (zero value for a nil cache).
func (c *SolveCache) Stats() SolveCacheStats {
	if c == nil {
		return SolveCacheStats{}
	}
	c.mu.Lock()
	size := c.order.Len()
	c.mu.Unlock()
	return SolveCacheStats{
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Coalesced:         c.coalesced.Load(),
		Evictions:         c.evictions.Load(),
		Spills:            c.spills.Load(),
		SpillErrors:       c.spillErrors.Load(),
		Size:              size,
		NeighborWarms:     c.neighborWarms.Load(),
		NeighborWarmIters: c.neighborIt.Load(),
	}
}

// Len returns the number of cached equilibria.
func (c *SolveCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// FindEquilibrium returns the memoized equilibrium for (classes, cfg),
// solving at most once per distinct instance. Concurrent callers with
// the same instance share one solve; distinct instances solve
// independently and in parallel. The returned equilibrium is shared —
// callers must not mutate it.
func (c *SolveCache) FindEquilibrium(classes []AgentClass, cfg Config) (*Equilibrium, error) {
	return c.FindEquilibriumSpanned(classes, cfg, nil)
}

// FindEquilibriumSpanned is FindEquilibrium with span tracing under the
// given parent span (nil disables it): the lookup is emitted as a
// cache.lookup child whose outcome field reports hit, miss, or
// coalesced — a coalesced lookup's duration is the time spent waiting
// on the in-flight solve — and a miss's actual solve as a core.solve
// child (with per-iteration solver.iter grandchildren via Config.Span).
func (c *SolveCache) FindEquilibriumSpanned(classes []AgentClass, cfg Config, parent *telemetry.Span) (*Equilibrium, error) {
	// Span payloads are built behind nil checks so unspanned lookups do
	// not pay a Fields allocation.
	if c == nil {
		solve := parent.Child("core.solve")
		cfg.Span = solve
		eq, err := FindEquilibrium(classes, cfg)
		if solve != nil {
			solve.EndWith(solveFields(eq, err))
		}
		return eq, err
	}
	key := SolveKey(classes, cfg)
	lookup := parent.Child("cache.lookup")

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		// Capture the equilibrium pointer before releasing the lock:
		// Warm and Admit overwrite ent.eq in place under c.mu, so a read
		// after Unlock would race them.
		eq := ent.eq
		c.order.MoveToFront(el)
		if c.neighborWarm && !ent.indexed {
			// Entries warm-loaded from disk carry no class information;
			// the first hit reveals it, so index them here.
			c.indexNeighborLocked(ent, FamilyKey(classes, cfg), classCounts(classes))
		}
		c.mu.Unlock()
		c.hits.Add(1)
		c.metrics.Counter("solvecache.hits").Inc()
		if lookup != nil {
			lookup.EndWith(telemetry.Fields{"outcome": "hit"})
		}
		return eq, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		c.metrics.Counter("solvecache.coalesced").Inc()
		<-call.done
		if lookup != nil {
			lookup.EndWith(telemetry.Fields{"outcome": "coalesced"})
		}
		return call.eq, call.err
	}
	call := &inflightSolve{done: make(chan struct{})}
	c.inflight[key] = call
	// Neighbour seed: resolved under the lock, where the family index and
	// the LRU are consistent. FamilyKey costs one hash of the instance —
	// noise against the solve the miss is about to run.
	var warm *WarmStart
	var fam uint64
	var counts []int
	if c.neighborWarm {
		fam = FamilyKey(classes, cfg)
		counts = classCounts(classes)
		warm = c.neighborSeedLocked(fam, counts)
	}
	c.mu.Unlock()

	c.misses.Add(1)
	c.metrics.Counter("solvecache.misses").Inc()
	if lookup != nil {
		lookup.EndWith(telemetry.Fields{"outcome": "miss"})
	}
	solve := parent.Child("core.solve")
	cfg.Span = solve
	call.eq, call.err = FindEquilibriumWarm(classes, cfg, warm)
	if solve != nil {
		solve.EndWith(solveFields(call.eq, call.err))
	}
	if call.err == nil && warm != nil {
		c.noteNeighborWarm(call.eq)
	}

	c.mu.Lock()
	delete(c.inflight, key)
	var store EquilibriumStore
	if call.err == nil {
		if ent := c.admitLocked(key, call.eq); ent != nil {
			if counts != nil && c.neighbors != nil {
				c.indexNeighborLocked(ent, fam, counts)
			}
			store = c.store
		}
	}
	c.metrics.Gauge("solvecache.size").Set(float64(c.order.Len()))
	c.mu.Unlock()
	close(call.done)
	if store != nil {
		c.spill(store, key, call.eq)
	}
	return call.eq, call.err
}

// spill writes one admitted equilibrium through to the disk tier.
// Failures are counted, not raised: the entry stays cached in memory
// and simply misses after the next restart.
func (c *SolveCache) spill(store EquilibriumStore, key uint64, eq *Equilibrium) {
	if err := store.Put(key, eq); err != nil {
		c.spillErrors.Add(1)
		c.metrics.Counter("solvecache.spill_errors").Inc()
		return
	}
	c.spills.Add(1)
	c.metrics.Counter("solvecache.spills").Inc()
}

// SetStore attaches the disk tier: every equilibrium the cache admits
// from here on is written through store.Put (outside the cache lock),
// so the store accumulates exactly the solutions worth replaying after
// a restart — including ones later evicted by the LRU bound, which
// remain on disk. A nil cache ignores the call; a nil store detaches.
func (c *SolveCache) SetStore(store EquilibriumStore) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.store = store
	c.mu.Unlock()
}

// Warm preloads replayed equilibria (typically the map returned by
// persist.OpenEquilibriumStore) without touching the hit/miss counters
// or writing back to the store. Keys are inserted in sorted order so
// the LRU state after a warm load is deterministic; when len(entries)
// exceeds the capacity, the largest keys survive. Unconverged entries
// are skipped. Returns the number of entries now cached. A nil cache
// ignores the call and returns 0.
func (c *SolveCache) Warm(entries map[uint64]*Equilibrium) int {
	n, _, _ := c.admitAll(entries)
	return n
}

// Contains reports whether key is currently cached. It peeks without
// touching the LRU order or the hit/miss counters, so probing (e.g. a
// cluster presolve deciding what still needs solving) never perturbs
// eviction state. A nil cache contains nothing.
func (c *SolveCache) Contains(key uint64) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	_, ok := c.entries[key]
	c.mu.Unlock()
	return ok
}

// Admit files externally solved equilibria — e.g. a cluster presolve
// that ran the instances through SolveBatch itself — as if each had
// been solved by a miss: entries insert in sorted key order and, unlike
// Warm, are written through to the disk tier when one is attached, so
// presolved solutions survive a restart. Unconverged entries are
// refused, as on a miss. Hit/miss counters are untouched. Returns the
// number of entries now cached. A nil cache ignores the call and
// returns 0.
func (c *SolveCache) Admit(entries map[uint64]*Equilibrium) int {
	n, admitted, store := c.admitAll(entries)
	if store != nil {
		for _, k := range admitted {
			c.spill(store, k, entries[k])
		}
	}
	return n
}

// admitAll files entries in sorted key order through admitLocked. It
// returns the resulting cache size, the keys it admitted, and the disk
// tier attached at the time (nil if none).
func (c *SolveCache) admitAll(entries map[uint64]*Equilibrium) (int, []uint64, EquilibriumStore) {
	if c == nil || len(entries) == 0 {
		return c.Len(), nil, nil
	}
	keys := sortedKeys(entries)
	admitted := keys[:0] // filtered in place: admitted never overtakes keys
	c.mu.Lock()
	for _, k := range keys {
		if eq := entries[k]; eq != nil && c.admitLocked(k, eq) != nil {
			admitted = append(admitted, k)
		}
	}
	n := c.order.Len()
	store := c.store
	c.mu.Unlock()
	c.metrics.Gauge("solvecache.size").Set(float64(n))
	return n, admitted, store
}

// sortedKeys returns entries' keys in ascending order, so warm loads
// replay in a deterministic order regardless of map iteration.
func sortedKeys(entries map[uint64]*Equilibrium) []uint64 {
	keys := make([]uint64, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// admitLocked is the one way an equilibrium enters the cache, whether
// from a miss, Warm or Admit. It refuses an unconverged result — a
// solve capped at MaxFixedPointIter is not an equilibrium Algorithm 1
// would accept — counting the refusal and returning nil, so the caller
// neither indexes nor spills it. Otherwise it files eq under key (in
// place when key is already cached), enforces the LRU bound, and
// returns the entry. Caller holds c.mu.
func (c *SolveCache) admitLocked(key uint64, eq *Equilibrium) *cacheEntry {
	if !eq.Converged {
		c.metrics.Counter("solvecache.unconverged").Inc()
		return nil
	}
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.eq = eq
		c.order.MoveToFront(el)
		return ent
	}
	ent := &cacheEntry{key: key, eq: eq}
	c.entries[key] = c.order.PushFront(ent)
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		ent := oldest.Value.(*cacheEntry)
		delete(c.entries, ent.key)
		if ent.indexed {
			// Evicted instances must stop seeding: a stale ref would hand
			// out an equilibrium the cache no longer owns.
			c.neighbors.remove(ent.fam, ent.key)
		}
		c.evictions.Add(1)
		c.metrics.Counter("solvecache.evictions").Inc()
	}
	return ent
}

// noteNeighborWarm records one miss solved from a neighbour's seed
// instead of the cold Ptrip = 1 start.
func (c *SolveCache) noteNeighborWarm(eq *Equilibrium) {
	c.neighborWarms.Add(1)
	c.neighborIt.Add(int64(eq.Iterations))
	c.metrics.Counter("solvecache.neighbor_warms").Inc()
	c.metrics.Counter("solvecache.neighbor_warm_iters").Add(int64(eq.Iterations))
}

// solveFields summarizes a solve's outcome for its core.solve span.
func solveFields(eq *Equilibrium, err error) telemetry.Fields {
	if err != nil {
		return telemetry.Fields{"error": err.Error()}
	}
	return telemetry.Fields{
		"iterations": eq.Iterations,
		"converged":  eq.Converged,
	}
}

// tripFingerprintSamples is the number of Ptrip curve samples folded
// into a SolveKey. The trip model is an interface, so instead of
// special-casing concrete types the key fingerprints the model's
// behaviour: its bounds plus Ptrip sampled across and beyond them.
// Functionally identical models therefore share cache entries
// regardless of representation (e.g. a LinearTripModel and the same
// model wrapped by power.Instrument).
const tripFingerprintSamples = 17

// SolveKey returns the canonical FNV-1a hash of a game instance: the
// classes (name, count, density atoms) and the semantic fields of cfg.
// Telemetry sinks (cfg.Metrics, cfg.Tracer, cfg.Span) are deliberately
// excluded — they do not affect the solution.
func SolveKey(classes []AgentClass, cfg Config) uint64 {
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
		u64(uint64(cl.Count))
		if cl.Density == nil {
			u64(0)
			continue
		}
		u64(uint64(cl.Density.Len()))
		for i := 0; i < cl.Density.Len(); i++ {
			x, p := cl.Density.Atom(i)
			f64(x)
			f64(p)
		}
	}

	u64(uint64(cfg.N))
	f64(cfg.Pc)
	f64(cfg.Pr)
	f64(cfg.Delta)
	f64(cfg.FixedPointTol)
	u64(uint64(cfg.MaxFixedPointIter))
	f64(cfg.Damping)

	tripFingerprint(cfg.Trip, f64)
	return h.Sum64()
}

// tripFingerprintSpanCap bounds the sampled span. An unbounded trip
// model reports nMax = +Inf, and the un-clamped span = nMax * 1.25
// would put every sample point at 0 * Inf = NaN then Inf — the same
// degenerate points for every such model, collapsing distinct curves
// onto colliding keys. The raw bounds bits are always keyed (so +Inf
// itself distinguishes bounded from unbounded), and the samples fall
// back to a span derived from nMin, capped at a finite range.
const tripFingerprintSpanCap = 1 << 20

// tripFingerprint folds a trip model's behaviour into a key: the raw
// bounds bits plus Ptrip sampled across (and beyond) a finite span.
// Shared by SolveKey and FamilyKey so both key the model identically.
func tripFingerprint(trip power.TripModel, f64 func(float64)) {
	if trip == nil {
		return
	}
	nMin, nMax := trip.Bounds()
	f64(nMin)
	f64(nMax)
	span := nMax * 1.25
	if math.IsNaN(span) || span <= 0 || span > tripFingerprintSpanCap {
		// Unbounded or degenerate upper bound: sample around the region
		// the lower bound makes interesting.
		span = 4*nMin + 1
	}
	if math.IsNaN(span) || span <= 0 || span > tripFingerprintSpanCap {
		span = tripFingerprintSpanCap
	}
	for i := 0; i < tripFingerprintSamples; i++ {
		n := span * float64(i) / float64(tripFingerprintSamples-1)
		f64(trip.Ptrip(n))
	}
}
