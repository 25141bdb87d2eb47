package coord

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"sprintgame/internal/telemetry"
)

func startServerWith(t *testing.T, opts ServeOptions) (*Server, *Client) {
	t.Helper()
	c, err := NewCoordinator(gameConfig())
	if err != nil {
		t.Fatal(err)
	}
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	srv, err := ServeWith(c, opts)
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, NewClient(srv.Addr())
}

// TestSilentClientIsDisconnected covers the half-open-client hazard: a
// client that connects and never sends a request must be cut loose by
// the per-connection deadline instead of pinning a handler goroutine.
func TestSilentClientIsDisconnected(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, _ := startServerWith(t, ServeOptions{
		ConnTimeout: 50 * time.Millisecond,
		Metrics:     reg,
	})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Go silent. The server must close the connection: a read on our end
	// observes EOF/reset well before the test times out.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept a silent connection alive")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server did not close the silent connection within 5s")
	}
	if got := reg.Counter("coord.conn_timeouts").Value(); got != 1 {
		t.Errorf("coord.conn_timeouts = %d, want 1", got)
	}
}

// TestSilentClientDoesNotBlockClose verifies Close returns promptly even
// with a stalled connection open (Close waits on handler goroutines).
func TestSilentClientDoesNotBlockClose(t *testing.T) {
	c, err := NewCoordinator(gameConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeWith(c, ServeOptions{Addr: "127.0.0.1:0", ConnTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Give the server a moment to accept, then close while the client
	// sits silent.
	time.Sleep(10 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a silent connection")
	}
}

func TestServerRequestTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	srv, client := startServerWith(t, ServeOptions{Metrics: reg, Tracer: tr})

	for i := 0; i < 3; i++ {
		p := profileFor(t, "a", "decision", uint64(i+1), 200)
		if err := client.SubmitProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := client.FetchStrategies(); err != nil {
		t.Fatal(err)
	}
	if err := client.SubmitProfile(Profile{Agent: "bad"}); err == nil {
		t.Fatal("invalid profile should error")
	}

	// Request counters and trace events are finalized after the
	// response is encoded; Close waits on the handler goroutines so
	// the registry and buffer are quiescent before the assertions.
	_ = srv.Close()

	if got := reg.Counter("coord.requests").Value(); got != 5 {
		t.Errorf("coord.requests = %d, want 5", got)
	}
	if got := reg.Counter("coord.requests.submit").Value(); got != 4 {
		t.Errorf("coord.requests.submit = %d, want 4", got)
	}
	if got := reg.Counter("coord.requests.strategies").Value(); got != 1 {
		t.Errorf("coord.requests.strategies = %d, want 1", got)
	}
	if got := reg.Counter("coord.request_errors").Value(); got != 1 {
		t.Errorf("coord.request_errors = %d, want 1", got)
	}
	if got := reg.Counter("coord.connections").Value(); got != 1 {
		// The client pools its connection: five round trips, one dial.
		t.Errorf("coord.connections = %d, want 1", got)
	}
	if got := reg.Counter("coord.connections.json").Value(); got != 1 {
		t.Errorf("coord.connections.json = %d, want 1", got)
	}
	h := reg.Histogram("coord.request_latency_s", nil).Snapshot()
	if h.Count != 5 {
		t.Errorf("latency histogram count = %d, want 5", h.Count)
	}
	types := map[string]int{}
	errored := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var s struct {
			Event string `json:"event"`
			Name  string `json:"name"`
			Type  string `json:"type"`
			Error string `json:"error"`
			Trace string `json:"trace"`
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if s.Event != "span" {
			t.Fatalf("non-span trace line %q", line)
		}
		if s.Name != "coord.request" {
			continue
		}
		types[s.Type]++
		if s.Error != "" {
			errored++
		}
		if s.Trace == "" {
			t.Errorf("coord.request span without a trace ID: %q", line)
		}
	}
	if types["submit"] != 4 || types["strategies"] != 1 || errored != 1 {
		t.Errorf("coord.request spans by type = %v with %d errors, want 4 submit, 1 strategies, 1 error", types, errored)
	}
}

func TestServeWithNegativeTimeoutDisablesDeadlines(t *testing.T) {
	srv, client := startServerWith(t, ServeOptions{ConnTimeout: -1})
	if srv.timeout != 0 {
		t.Errorf("timeout = %v, want disabled", srv.timeout)
	}
	p := profileFor(t, "a", "decision", 1, 200)
	if err := client.SubmitProfile(p); err != nil {
		t.Fatal(err)
	}
}
