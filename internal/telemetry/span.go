package telemetry

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"sprintgame/internal/stats"
)

// Spans are the one trace record: a Span is one named operation inside
// a trace, with an ID, an optional parent, its payload fields, and — on
// tracers with a wall clock — a start timestamp and duration. Ending a
// span emits one "span" event through the owning Tracer:
//
//	{"event":"span","name":"coord.parse","trace":"6e8a…","id":"b04c…",
//	 "parent":"19f2…","start_ns":1730000000123,"dur_ns":8124}
//
// # Determinism
//
// IDs are derived, not random: a trace ID comes from a caller-supplied
// seed (TraceIDFromSeed), a root span's ID from the trace ID and span
// name, and a child's ID from its parent's ID, its name, and its birth
// order. A deterministic run that creates spans in a deterministic
// order therefore produces byte-identical span events — the same
// contract the rest of the tracer honours across worker counts.
//
// Timing follows the Tracer's clock rule: a tracer without a clock
// (deterministic simulation traces) emits spans with no start_ns/dur_ns
// fields, so wall-clock jitter can never leak into a deterministic
// trace; a tracer with a clock (live servers, benchmarks) stamps both.
//
// A nil *Span is a valid disabled span: every method no-ops and Child
// returns nil, so instrumented paths pay a pointer test when tracing is
// off. A Span is owned by one operation and must not be shared across
// goroutines (Child birth order is atomic, but Set/End are not
// synchronized with each other).
type Span struct {
	tracer *Tracer
	name   string
	trace  string
	id     string
	parent string

	start time.Time
	timed bool

	explicit      bool
	explicitStart time.Time
	explicitDur   time.Duration

	children atomic.Int64
	ended    atomic.Bool
}

// formatID renders an ID as 16 lowercase hex characters.
func formatID(v uint64) string { return fmt.Sprintf("%016x", v) }

// TraceIDFromSeed derives a trace ID from a seed. The derivation is a
// pure function, so deterministic runs (cluster simulations, seeded
// benchmarks) get reproducible trace IDs; live callers can feed any
// unique source (request counters, client sequence numbers). The
// SplitMix64 mix decorrelates the IDs of adjacent seeds.
func TraceIDFromSeed(seed uint64) string { return formatID(stats.SplitMix64(seed)) }

// deriveSpanID hashes a span's coordinates — trace, parent, name, birth
// order under the parent — into its ID.
func deriveSpanID(trace, parent, name string, idx int64) string {
	h := fnv.New64a()
	h.Write([]byte(trace))
	h.Write([]byte{0})
	h.Write([]byte(parent))
	h.Write([]byte{0})
	h.Write([]byte(name))
	h.Write([]byte{0})
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(idx))
	h.Write(buf[:])
	return formatID(h.Sum64())
}

// now returns the tracer's clock reading, reporting false when the
// tracer is nil or clock-less (deterministic mode).
func (t *Tracer) now() (time.Time, bool) {
	if t == nil {
		return time.Time{}, false
	}
	t.mu.Lock()
	clock := t.clock
	t.mu.Unlock()
	if clock == nil {
		return time.Time{}, false
	}
	return clock(), true
}

// StartSpan opens a root span of the given trace. One root per trace is
// the intended shape (e.g. one coord.request per request trace); roots
// sharing a trace and a name would collide on span ID. A nil tracer
// returns a nil (disabled) span.
func (t *Tracer) StartSpan(name, traceID string) *Span {
	return t.StartSpanFrom(name, traceID, "")
}

// StartSpanFrom opens a span parented under a remote span — one whose
// trace and span IDs arrived over a wire (e.g. the coordinator protocol's
// trace/parent request fields) rather than from a local *Span. An empty
// parentID yields a root span.
func (t *Tracer) StartSpanFrom(name, traceID, parentID string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		tracer: t,
		name:   name,
		trace:  traceID,
		parent: parentID,
		id:     deriveSpanID(traceID, parentID, name, 0),
	}
	s.start, s.timed = t.now()
	return s
}

// Child opens a sub-span. The child's ID is derived from the parent's ID,
// the name, and the child's birth order, so a deterministic creation
// order yields deterministic IDs.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	idx := s.children.Add(1) - 1
	c := &Span{
		tracer: s.tracer,
		name:   name,
		trace:  s.trace,
		parent: s.id,
		id:     deriveSpanID(s.trace, s.id, name, idx),
	}
	c.start, c.timed = s.tracer.now()
	return c
}

// TraceID returns the span's trace ID ("" for a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace
}

// SpanID returns the span's own ID ("" for a nil span). Callers
// propagating context across a wire send TraceID and SpanID so the
// remote side can parent its spans under this one.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// WithTiming overrides the span's measured start and duration — for
// spans reconstructed after the fact, e.g. the cluster layer emitting
// per-rack spans post-run in deterministic rack order from timings
// captured on worker goroutines. On a clock-less tracer the override is
// ignored along with all timing: deterministic traces never carry
// wall-clock fields. Returns the span for chaining.
func (s *Span) WithTiming(start time.Time, dur time.Duration) *Span {
	if s == nil {
		return nil
	}
	s.explicit = true
	s.explicitStart = start
	s.explicitDur = dur
	return s
}

// End emits the span event. Safe to call once; later calls no-op.
func (s *Span) End() { s.EndWith(nil) }

// EndWith emits the span event with the given payload fields. Reserved
// keys (event, name, trace, id, parent, start_ns, dur_ns) are
// overwritten.
func (s *Span) EndWith(fields Fields) {
	if s == nil {
		return
	}
	if !s.ended.CompareAndSwap(false, true) {
		return
	}
	obj := make(Fields, len(fields)+7)
	for k, v := range fields {
		obj[k] = v
	}
	obj["name"] = s.name
	obj["trace"] = s.trace
	obj["id"] = s.id
	if s.parent != "" {
		obj["parent"] = s.parent
	}
	if s.timed {
		start, dur := s.start, time.Duration(0)
		if s.explicit {
			start, dur = s.explicitStart, s.explicitDur
		} else if end, ok := s.tracer.now(); ok {
			dur = end.Sub(start)
		}
		obj["start_ns"] = start.UnixNano()
		obj["dur_ns"] = dur.Nanoseconds()
	}
	s.tracer.Emit("span", obj)
}
