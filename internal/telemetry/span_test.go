package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilSpanIsDisabled(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan("x", TraceIDFromSeed(1))
	if s != nil {
		t.Fatal("nil tracer should hand out a nil span")
	}
	// Every operation on a nil span must no-op without panicking.
	c := s.Child("y")
	if c != nil {
		t.Fatal("child of nil span should be nil")
	}
	s.WithTiming(time.Now(), time.Second)
	s.End()
	s.EndWith(Fields{"a": 1})
	if s.TraceID() != "" || s.SpanID() != "" {
		t.Error("nil span should have empty IDs")
	}
}

func TestSpanIDsAreDeterministic(t *testing.T) {
	emit := func() string {
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		root := tr.StartSpan("coord.request", TraceIDFromSeed(42))
		a := root.Child("parse")
		a.End()
		b := root.Child("solve")
		b.EndWith(Fields{"iters": 7})
		root.End()
		return buf.String()
	}
	first, second := emit(), emit()
	if first != second {
		t.Fatalf("span traces differ across identical runs:\n%s\nvs\n%s", first, second)
	}
	if strings.Count(first, `"event":"span"`) != 3 {
		t.Fatalf("want 3 span events, got:\n%s", first)
	}
	// Clock-less tracers must not leak wall-clock fields.
	if strings.Contains(first, "start_ns") || strings.Contains(first, "dur_ns") {
		t.Errorf("deterministic trace carries timing fields:\n%s", first)
	}
}

func TestSpanParentChildWiring(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	trace := TraceIDFromSeed(7)
	root := tr.StartSpan("root", trace)
	child := root.Child("child")
	grand := child.Child("grand")
	grand.End()
	child.End()
	root.End()

	type spanEvent struct {
		Event  string `json:"event"`
		Name   string `json:"name"`
		Trace  string `json:"trace"`
		ID     string `json:"id"`
		Parent string `json:"parent"`
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d", len(lines))
	}
	byName := map[string]spanEvent{}
	for _, line := range lines {
		var ev spanEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Event != "span" || ev.Trace != trace {
			t.Fatalf("bad span event %+v", ev)
		}
		byName[ev.Name] = ev
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child parent = %q, want root id %q", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grand"].Parent != byName["child"].ID {
		t.Errorf("grand parent = %q, want child id %q", byName["grand"].Parent, byName["child"].ID)
	}
	if byName["root"].Parent != "" {
		t.Errorf("root has parent %q", byName["root"].Parent)
	}
	ids := map[string]bool{}
	for _, ev := range byName {
		if ids[ev.ID] {
			t.Errorf("duplicate span id %q", ev.ID)
		}
		ids[ev.ID] = true
	}
}

func TestSiblingSpansWithSameNameGetDistinctIDs(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := tr.StartSpan("root", TraceIDFromSeed(9))
	a := root.Child("iter")
	b := root.Child("iter")
	if a.SpanID() == b.SpanID() {
		t.Fatalf("sibling spans share id %q", a.SpanID())
	}
}

func TestSpanTimingFromClock(t *testing.T) {
	var buf bytes.Buffer
	now := time.Unix(100, 0)
	tr := NewTracer(&buf).WithClock(func() time.Time {
		now = now.Add(50 * time.Millisecond)
		return now
	})
	root := tr.StartSpan("op", TraceIDFromSeed(1))
	root.End()

	var ev struct {
		StartNs int64 `json:"start_ns"`
		DurNs   int64 `json:"dur_ns"`
	}
	line := strings.SplitN(strings.TrimSpace(buf.String()), "\n", 2)[0]
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.StartNs != time.Unix(100, 0).Add(50*time.Millisecond).UnixNano() {
		t.Errorf("start_ns = %d", ev.StartNs)
	}
	// One tick for the start, one for the Emit's ts stamp ordering is
	// tracer-internal; the duration must be exactly one 50ms tick.
	if ev.DurNs != (50 * time.Millisecond).Nanoseconds() {
		t.Errorf("dur_ns = %d, want %d", ev.DurNs, (50 * time.Millisecond).Nanoseconds())
	}
}

func TestSpanWithTimingOverride(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf).WithClock(time.Now)
	start := time.Unix(1000, 500)
	tr.StartSpan("rack", TraceIDFromSeed(3)).
		WithTiming(start, 2*time.Second).
		End()
	var ev struct {
		StartNs int64 `json:"start_ns"`
		DurNs   int64 `json:"dur_ns"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.StartNs != start.UnixNano() || ev.DurNs != (2*time.Second).Nanoseconds() {
		t.Errorf("timing = %d/%d, want %d/%d", ev.StartNs, ev.DurNs,
			start.UnixNano(), (2 * time.Second).Nanoseconds())
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	s := tr.StartSpan("once", TraceIDFromSeed(5))
	s.End()
	s.End()
	s.EndWith(Fields{"late": true})
	if n := strings.Count(buf.String(), `"event":"span"`); n != 1 {
		t.Errorf("span emitted %d times, want 1", n)
	}
}

func TestTraceIDFromSeedIsStableAndDistinct(t *testing.T) {
	a, b := TraceIDFromSeed(1), TraceIDFromSeed(2)
	if a == b {
		t.Errorf("adjacent seeds collide: %q", a)
	}
	if len(a) != 16 || len(b) != 16 {
		t.Errorf("trace id lengths %d/%d, want 16", len(a), len(b))
	}
	if a != TraceIDFromSeed(1) {
		t.Error("trace id derivation is not stable")
	}
	if zero := TraceIDFromSeed(0); zero == strings.Repeat("0", 16) {
		t.Errorf("seed 0 maps to the all-zero id %q", zero)
	}
}
