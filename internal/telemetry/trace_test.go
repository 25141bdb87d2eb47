package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer should report disabled")
	}
	tr.Emit("x", Fields{"a": 1}) // must not panic
	if tr.Err() != nil {
		t.Error("nil tracer should record nothing")
	}
	if NewTracer(nil) != nil {
		t.Error("NewTracer(nil) should return a nil tracer")
	}
	if tr.WithClock(time.Now) != nil {
		t.Error("WithClock on nil tracer should stay nil")
	}
}

func TestEmitWritesOneJSONObjectPerLine(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit("sim.epoch", Fields{"epoch": 0, "sprinters": 42})
	tr.Emit("sim.trip", Fields{"epoch": 1, "ptrip": 0.5})
	sc := bufio.NewScanner(&buf)
	var events []map[string]any
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		events = append(events, obj)
	}
	if len(events) != 2 {
		t.Fatalf("got %d lines", len(events))
	}
	if events[0]["event"] != "sim.epoch" || events[0]["sprinters"] != float64(42) {
		t.Errorf("first event = %v", events[0])
	}
	if events[1]["event"] != "sim.trip" || events[1]["ptrip"] != 0.5 {
		t.Errorf("second event = %v", events[1])
	}
	if _, ok := events[0]["ts"]; ok {
		t.Error("no clock set: events should not carry timestamps")
	}
}

func TestEmitIsDeterministic(t *testing.T) {
	emit := func() string {
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		tr.Emit("e", Fields{"b": 2, "a": 1, "c": []int{3}})
		return buf.String()
	}
	if emit() != emit() {
		t.Error("identical emits should serialize identically")
	}
}

func TestWithClockStampsEvents(t *testing.T) {
	var buf bytes.Buffer
	fixed := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	tr := NewTracer(&buf).WithClock(func() time.Time { return fixed })
	tr.Emit("e", nil)
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatal(err)
	}
	if obj["ts"] != "2026-08-06T12:00:00Z" {
		t.Errorf("ts = %v", obj["ts"])
	}
}

type failingWriter struct {
	allow int
	calls int
	err   error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.allow <= 0 {
		return 0, w.err
	}
	w.allow--
	return len(p), nil
}

func TestWriteErrorsAreSticky(t *testing.T) {
	wantErr := errors.New("disk full")
	w := &failingWriter{allow: 1, err: wantErr}
	tr := NewTracer(w)
	tr.Emit("ok", nil)
	tr.Emit("fails", nil)
	tr.Emit("skipped", nil)
	if w.calls != 2 {
		t.Errorf("%d writes, want 2 (none after the failure)", w.calls)
	}
	if !errors.Is(tr.Err(), wantErr) {
		t.Errorf("err = %v", tr.Err())
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&syncWriter{w: &buf})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				tr.Emit("e", Fields{"j": j})
			}
		}()
	}
	wg.Wait()
	lines := strings.Count(buf.String(), "\n")
	if lines != 1600 {
		t.Errorf("wrote %d lines, want 1600 (interleaved writes?)", lines)
	}
}

// syncWriter makes a bytes.Buffer safe for the concurrent test; the
// tracer itself serializes Emits, this guards the test's own invariant.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
