// Package telemetry is the repository's observability substrate: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms), span tracing over a JSONL sink, and an opt-in HTTP debug
// endpoint exposing the registry alongside pprof and expvar.
//
// Everything is nil-safe by design: a nil *Registry hands out nil
// instruments, and every instrument method no-ops on a nil receiver, so
// instrumented hot paths pay only a pointer test when telemetry is
// disabled. Instruments should be looked up once and reused; lookups
// take a lock, Add/Set/Observe do not (counters and gauges) or take a
// short per-instrument lock (histograms).
//
// Only the standard library is used.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (negative deltas are ignored).
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set (0 for a nil or never-set gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets. Bucket i counts
// observations <= Bounds[i]; observations above the last bound land in an
// overflow bucket. Bounds are set at creation and never change.
//
// Observe is lock-free: each bucket is an atomic counter and the
// sum/min/max moments are maintained by CAS loops, so the histogram can
// sit on a serving hot path (the coordinator observes one latency per
// request) without a per-instrument mutex serializing requests. The
// observation count is not stored separately — it is the sum of the
// bucket counters, so Count always equals the bucket total and a
// Snapshot's buckets are mutually consistent. Sum/Min/Max are updated
// by separate atomics and may trail the buckets by in-flight
// observations; every value read is one some Observe actually wrote.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is overflow
	sumBits atomic.Uint64  // float64 bits, CAS-accumulated
	minBits atomic.Uint64  // float64 bits, +Inf until first Observe
	maxBits atomic.Uint64  // float64 bits, -Inf until first Observe
}

// newHistogram builds a histogram over the given sorted bounds.
func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// casAccumulate folds v into an atomically-held float64 via CAS.
func casAccumulate(bits *atomic.Uint64, v float64, fold func(old, v float64) float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(fold(math.Float64frombits(old), v))
		if next == old || bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Observe records one observation. Lock-free and safe for concurrent
// use with other Observes and Snapshots.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	// The moments land before the count, and Snapshot reads the counts
	// first: a snapshot that counts this observation also sees its
	// min and max, never the ±Inf sentinels (which JSON cannot encode).
	casAccumulate(&h.sumBits, v, func(old, v float64) float64 { return old + v })
	casAccumulate(&h.minBits, v, math.Min)
	casAccumulate(&h.maxBits, v, math.Max)
	h.counts[i].Add(1)
}

// HistogramBucket is one bucket of a histogram snapshot. Le is the
// bucket's inclusive upper bound; the overflow bucket reports
// Le = +Inf (serialized as the string "+Inf").
type HistogramBucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON renders +Inf as a JSON string (JSON has no infinities).
func (b HistogramBucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.Le, 1) {
		return json.Marshal(struct {
			Le    float64 `json:"le"`
			Count int64   `json:"count"`
		}{b.Le, b.Count})
	}
	return json.Marshal(struct {
		Le    string `json:"le"`
		Count int64  `json:"count"`
	}{le, b.Count})
}

// UnmarshalJSON accepts both numeric bounds and the "+Inf" overflow
// marker produced by MarshalJSON.
func (b *HistogramBucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    json.RawMessage `json:"le"`
		Count int64           `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	var s string
	if err := json.Unmarshal(raw.Le, &s); err == nil {
		b.Le = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.Le, &b.Le)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	Mean    float64           `json:"mean"`
	Buckets []HistogramBucket `json:"buckets"`
}

// Snapshot copies the histogram's current state. Count is derived from
// the bucket counters, so it always equals the sum over Buckets even
// while other goroutines keep observing.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	s.Buckets = make([]HistogramBucket, len(h.counts))
	for i := range h.counts {
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		c := h.counts[i].Load()
		s.Buckets[i] = HistogramBucket{Le: le, Count: c}
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	s.Min = math.Float64frombits(h.minBits.Load())
	s.Max = math.Float64frombits(h.maxBits.Load())
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	} else {
		// Preserve the zero-value presentation: an empty histogram
		// reports 0 moments, not the +/-Inf sentinels.
		s.Sum, s.Min, s.Max = 0, 0, 0
	}
	return s
}

// Quantile returns the q-quantile (q in [0, 1]) of the snapshot by
// linear interpolation inside the bucket holding the target rank,
// clamped to the observed [Min, Max]. With a high-resolution bucket
// layout (see LatencyBuckets) the interpolation error is bounded by the
// bucket width, which is what a p50/p90/p99/p99.9 report needs. An
// empty snapshot returns 0; q outside [0, 1] is clamped.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	q = math.Min(1, math.Max(0, q))
	rank := q * float64(s.Count)
	var cum int64
	for i, b := range s.Buckets {
		if b.Count == 0 {
			cum += b.Count
			continue
		}
		if float64(cum+b.Count) >= rank {
			lo := s.Min
			if i > 0 {
				lo = s.Buckets[i-1].Le
			}
			hi := b.Le
			if math.IsInf(hi, 1) {
				hi = s.Max
			}
			lo = math.Max(lo, s.Min)
			hi = math.Min(hi, s.Max)
			if hi <= lo {
				return math.Min(math.Max(lo, s.Min), s.Max)
			}
			frac := (rank - float64(cum)) / float64(b.Count)
			frac = math.Min(1, math.Max(0, frac))
			return lo + frac*(hi-lo)
		}
		cum += b.Count
	}
	return s.Max
}

// LinearBuckets returns n bucket upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if n <= 0 || width <= 0 {
		return nil
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start + width*float64(i)
	}
	return b
}

// LatencyBuckets returns a high-resolution latency layout in seconds:
// 84 exponential buckets from 1 µs to ~125 s with a 1.25 growth factor,
// i.e. ~12 buckets per decade. Tail quantiles interpolated from this
// layout (HistogramSnapshot.Quantile) carry at most one bucket width of
// error — tight enough to report p50/p90/p99/p99.9 for a serving path.
func LatencyBuckets() []float64 {
	return ExponentialBuckets(1e-6, 1.25, 84)
}

// ExponentialBuckets returns n bucket upper bounds start, start*factor, ...
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Registry holds named instruments. The zero value is not usable; use
// NewRegistry. A nil *Registry is a valid disabled sink: its lookup
// methods return nil instruments whose operations all no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (bounds must be sorted ascending;
// they are ignored if the histogram already exists). A histogram created
// with no bounds has only the overflow bucket, i.e. tracks
// count/sum/min/max.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		sort.Float64s(bs)
		h = newHistogram(bs)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time, JSON-serializable copy of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every instrument's current value. Safe to call while
// other goroutines keep recording.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range histograms {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// String renders a compact single-line summary, useful in logs.
func (r *Registry) String() string {
	if r == nil {
		return "telemetry: disabled"
	}
	s := r.Snapshot()
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	out := "telemetry:"
	for _, k := range names {
		out += fmt.Sprintf(" %s=%d", k, s.Counters[k])
	}
	return out
}
