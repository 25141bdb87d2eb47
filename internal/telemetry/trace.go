package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Fields is an event's payload: flat key/value pairs serialized in
// sorted key order (encoding/json sorts map keys), so traces are
// byte-for-byte deterministic for a deterministic simulation.
type Fields map[string]any

// Tracer writes structured events as JSON Lines to a pluggable sink,
// one object per line:
//
//	{"event":"span","name":"sim.epoch","epoch":17,"sprinters":312,...}
//
// The "event" key names the event type; remaining keys are the payload.
// Instrumented code records spans (see Span), which end by emitting one
// "span" event each; Emit is the low-level write they share. A nil
// *Tracer is a valid disabled tracer: Emit no-ops and Enabled reports
// false, so callers can skip building payloads entirely.
//
// Tracer is safe for concurrent use; each Emit writes one full line
// under a lock. Write errors are sticky: the first error stops further
// writes and is reported by Err, so a full disk cannot silently truncate
// a trace mid-run.
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	clock func() time.Time
	err   error
}

// NewTracer returns a tracer writing to w. A nil w yields a nil
// (disabled) tracer.
func NewTracer(w io.Writer) *Tracer {
	if w == nil {
		return nil
	}
	return &Tracer{w: w}
}

// WithClock makes the tracer stamp each event with a "ts" field
// (RFC 3339 with nanoseconds) from the given clock. Pass time.Now for
// wall-clock stamps on live servers; leave unset for deterministic
// simulation traces keyed by epoch. Returns the tracer for chaining.
func (t *Tracer) WithClock(clock func() time.Time) *Tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
	return t
}

// Enabled reports whether Emit will record anything. Callers with
// expensive payloads should gate on this.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit writes one event line. The event type is stored under the
// reserved key "event" (a payload key named "event" is overwritten).
func (t *Tracer) Emit(event string, fields Fields) {
	if t == nil {
		return
	}
	obj := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		obj[k] = v
	}
	obj["event"] = event
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if t.clock != nil {
		obj["ts"] = t.clock().Format(time.RFC3339Nano)
	}
	line, err := json.Marshal(obj)
	if err != nil {
		t.err = err
		return
	}
	line = append(line, '\n')
	if _, err := t.w.Write(line); err != nil {
		t.err = err
	}
}

// Err returns the first write or marshal error, if any. Traces whose
// tracer reports a non-nil Err are truncated and must not be trusted.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
