package coord

import (
	"bytes"
	"encoding/json"
	"testing"

	"sprintgame/internal/core"
	"sprintgame/internal/telemetry"
)

// spanEvent decodes one span line for assertions.
type spanEvent struct {
	Event   string `json:"event"`
	Name    string `json:"name"`
	Trace   string `json:"trace"`
	ID      string `json:"id"`
	Parent  string `json:"parent"`
	Type    string `json:"type"`
	Outcome string `json:"outcome"`
	// Memoized is coord.pool's flag for a fetch that reused the pooled
	// densities.
	Memoized bool `json:"memoized"`
	// Repooled is coord.pool's count of classes it re-pooled.
	Repooled int `json:"repooled"`
}

func decodeSpans(t *testing.T, trace []byte) []spanEvent {
	t.Helper()
	var spans []spanEvent
	for _, line := range bytes.Split(trace, []byte("\n")) {
		if len(line) == 0 || !bytes.Contains(line, []byte(`"event":"span"`)) {
			continue
		}
		var s spanEvent
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("bad span line %s: %v", line, err)
		}
		spans = append(spans, s)
	}
	return spans
}

// TestTracePropagationStitchesClientAndServer runs a traced client
// against a traced server sharing one sink and checks the wire protocol
// carries the trace: the server's coord.request span must join the
// client's trace, parented under the client's coord.client.request
// span, with the full server-side tree (dispatch, pool, cache.lookup,
// core.solve) on the same trace ID.
func TestTracePropagationStitchesClientAndServer(t *testing.T) {
	var trace bytes.Buffer
	tracer := telemetry.NewTracer(&trace)
	srv, _ := startServerWith(t, ServeOptions{
		Tracer: tracer,
		// The cache makes the lookup path (cache.lookup spans) live.
		Cache: core.NewSolveCache(8, nil),
	})
	client := NewClientWith(srv.Addr(), ClientOptions{Tracer: tracer, TraceSeed: 42})

	if err := client.SubmitProfile(profileFor(t, "a1", "decision", 1, 200)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.FetchStrategies(); err != nil {
		t.Fatal(err)
	}

	// The server finishes a request's emission (root span, counters)
	// after responding; Close waits on the handler goroutines so the
	// buffer is quiescent before we read it.
	_ = srv.Close()
	spans := decodeSpans(t, trace.Bytes())
	byName := map[string][]spanEvent{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	clientSpans := byName["coord.client.request"]
	serverSpans := byName["coord.request"]
	if len(clientSpans) != 2 || len(serverSpans) != 2 {
		t.Fatalf("got %d client and %d server request spans, want 2 and 2",
			len(clientSpans), len(serverSpans))
	}
	// Each server root must sit under exactly one client span's trace.
	clientByID := map[string]spanEvent{}
	for _, cs := range clientSpans {
		if cs.Trace == "" || cs.ID == "" {
			t.Fatalf("client span missing ids: %+v", cs)
		}
		clientByID[cs.ID] = cs
	}
	for _, ss := range serverSpans {
		parent, ok := clientByID[ss.Parent]
		if !ok {
			t.Fatalf("server span parent %q is not a client span id", ss.Parent)
		}
		if ss.Trace != parent.Trace {
			t.Errorf("server span trace %q != client trace %q", ss.Trace, parent.Trace)
		}
		if ss.Type != parent.Type {
			t.Errorf("server span type %q != client type %q", ss.Type, parent.Type)
		}
	}
	// The strategies request's whole server-side tree shares its trace.
	var stratTrace string
	for _, ss := range serverSpans {
		if ss.Type == "strategies" {
			stratTrace = ss.Trace
		}
	}
	if stratTrace == "" {
		t.Fatal("no strategies coord.request span")
	}
	for _, name := range []string{"coord.parse", "coord.dispatch", "coord.encode", "coord.pool", "cache.lookup", "core.solve", "solver.iter"} {
		found := false
		for _, s := range byName[name] {
			if s.Trace == stratTrace {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("strategies trace %s has no %s span", stratTrace, name)
		}
	}
	// cache.lookup must record its outcome (first strategies call solves).
	if got := byName["cache.lookup"][0].Outcome; got != "miss" {
		t.Errorf("first cache.lookup outcome = %q, want miss", got)
	}
}

// TestServerDerivesTraceForUntracedClients checks requests from a
// client with no tracer still get a server-derived trace ID, distinct
// per request, with no parent.
func TestServerDerivesTraceForUntracedClients(t *testing.T) {
	var trace bytes.Buffer
	srv, client := startServerWith(t, ServeOptions{Tracer: telemetry.NewTracer(&trace)})
	if err := client.SubmitProfile(profileFor(t, "a1", "decision", 1, 200)); err != nil {
		t.Fatal(err)
	}
	if err := client.SubmitProfile(profileFor(t, "a2", "decision", 2, 200)); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close() // quiesce handler emission before reading the buffer
	seen := map[string]bool{}
	for _, s := range decodeSpans(t, trace.Bytes()) {
		if s.Name != "coord.request" {
			continue
		}
		if s.Trace == "" {
			t.Error("server span without a trace ID")
		}
		if s.Parent != "" {
			t.Errorf("untraced client produced a parented server span: %q", s.Parent)
		}
		if seen[s.Trace] {
			t.Errorf("trace %s reused across requests", s.Trace)
		}
		seen[s.Trace] = true
	}
	if len(seen) != 2 {
		t.Fatalf("got %d server request spans, want 2", len(seen))
	}
}

// TestClientMetrics checks the client-side instrumentation: request and
// error counters (total and per type) plus the latency histogram.
func TestClientMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, _ := startServerWith(t, ServeOptions{})
	client := NewClientWith(srv.Addr(), ClientOptions{Metrics: reg})

	// One failing request (no profiles yet), then a submit and a fetch.
	if _, _, err := client.FetchStrategies(); err == nil {
		t.Fatal("strategies with no profiles should fail")
	}
	if err := client.SubmitProfile(profileFor(t, "a1", "decision", 1, 200)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.FetchStrategies(); err != nil {
		t.Fatal(err)
	}

	counters := map[string]int64{
		"coord.client.requests":            3,
		"coord.client.requests.strategies": 2,
		"coord.client.requests.submit":     1,
		"coord.client.errors":              1,
	}
	for name, want := range counters {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	lat := reg.Histogram("coord.client.request_latency_s", telemetry.LatencyBuckets()).Snapshot()
	if lat.Count != 3 {
		t.Errorf("latency histogram count = %d, want 3", lat.Count)
	}
	if p99 := lat.Quantile(0.99); p99 <= 0 {
		t.Errorf("latency p99 = %v, want > 0", p99)
	}
}
