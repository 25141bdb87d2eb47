package core

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"sprintgame/internal/power"
	"sprintgame/internal/telemetry"
)

// SolveCache memoizes FindEquilibrium results in memory. Deployments
// re-solve the same instance constantly: every rack of a cluster with
// the same workload mix, every experiment sharing a baseline. The
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
}

// cacheEntry is one memoized solution.
type cacheEntry struct {
	key uint64
	eq  *Equilibrium
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
	Hits      int64 // lookups answered from the cache
	Misses    int64 // lookups that ran FindEquilibrium
	Coalesced int64 // lookups that joined an in-flight solve
	Evictions int64 // entries dropped by the LRU bound
	Size      int   // entries currently cached
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
	return SolveCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Size:      c.Len(),
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
		return solveSpanned(classes, cfg, parent)
	}
	key := SolveKey(classes, cfg)
	lookup := parent.Child("cache.lookup")

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		eq := el.Value.(*cacheEntry).eq
		c.order.MoveToFront(el)
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
	c.mu.Unlock()

	c.misses.Add(1)
	c.metrics.Counter("solvecache.misses").Inc()
	if lookup != nil {
		lookup.EndWith(telemetry.Fields{"outcome": "miss"})
	}
	call.eq, call.err = solveSpanned(classes, cfg, parent)

	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		c.admitLocked(key, call.eq)
	}
	c.metrics.Gauge("solvecache.size").Set(float64(c.order.Len()))
	c.mu.Unlock()
	close(call.done)
	return call.eq, call.err
}

// solveSpanned runs FindEquilibrium under a core.solve child of parent
// (with per-iteration solver.iter grandchildren via Config.Span).
func solveSpanned(classes []AgentClass, cfg Config, parent *telemetry.Span) (*Equilibrium, error) {
	solve := parent.Child("core.solve")
	cfg.Span = solve
	eq, err := FindEquilibrium(classes, cfg)
	if solve != nil {
		solve.EndWith(solveFields(eq, err))
	}
	return eq, err
}

// admitLocked is the one way an equilibrium enters the cache. It
// refuses an unconverged result — a solve capped at MaxFixedPointIter
// is not an equilibrium Algorithm 1 would accept — counting the
// refusal. Otherwise it files eq under key and enforces the LRU bound.
// Caller holds c.mu.
func (c *SolveCache) admitLocked(key uint64, eq *Equilibrium) {
	if !eq.Converged {
		c.metrics.Counter("solvecache.unconverged").Inc()
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, eq: eq})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
		c.metrics.Counter("solvecache.evictions").Inc()
	}
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
