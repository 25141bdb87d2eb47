package coord

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sprintgame/internal/telemetry"
)

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	c, err := NewCoordinator(gameConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(c, "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, NewClient(srv.Addr())
}

func TestServeRejectsNilCoordinator(t *testing.T) {
	if _, err := Serve(nil, "127.0.0.1:0"); err == nil {
		t.Error("nil coordinator should error")
	}
}

func TestNetProtocolEndToEnd(t *testing.T) {
	_, client := startServer(t)

	// Submitting before any profile exists: strategies must fail.
	if _, _, err := client.FetchStrategies(); err == nil {
		t.Error("strategies without profiles should error")
	}

	// Submit profiles for a small population.
	for i := 0; i < 8; i++ {
		p := profileFor(t, fmt.Sprintf("d%d", i), "decision", uint64(i+1), 500)
		if err := client.SubmitProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		p := profileFor(t, fmt.Sprintf("p%d", i), "pagerank", uint64(i+100), 500)
		if err := client.SubmitProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	strategies, ptrip, err := client.FetchStrategies()
	if err != nil {
		t.Fatal(err)
	}
	if len(strategies) != 2 {
		t.Fatalf("got %d strategies", len(strategies))
	}
	if ptrip < 0 || ptrip > 1 {
		t.Errorf("ptrip = %v", ptrip)
	}
	if strategies["decision"].Agents != 8 || strategies["pagerank"].Agents != 4 {
		t.Errorf("agent counts wrong: %+v", strategies)
	}
}

func TestNetProtocolInvalidSubmit(t *testing.T) {
	_, client := startServer(t)
	if err := client.SubmitProfile(Profile{Agent: "x"}); err == nil {
		t.Error("invalid profile should be rejected by the server")
	}
}

func TestNetProtocolMalformedRequests(t *testing.T) {
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Malformed JSON.
	if _, err := conn.Write([]byte("{nope\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if len(line) == 0 || line[0] != '{' {
		t.Fatalf("unexpected reply %q", line)
	}
	// Unknown type.
	if _, err := conn.Write([]byte(`{"type":"dance"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	line, err = r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if want := "unknown request type"; !contains(line, want) {
		t.Errorf("reply %q does not mention %q", line, want)
	}
	// Submit without profile.
	if _, err := conn.Write([]byte(`{"type":"submit"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	line, _ = r.ReadString('\n')
	if !contains(line, "requires a profile") {
		t.Errorf("reply %q", line)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestPtripZeroStaysOnWire(t *testing.T) {
	// A legitimate equilibrium Ptrip of exactly 0 must be encoded: with
	// omitempty it would vanish from the wire and decode as "absent".
	payload, err := appendJSONResponse(nil, response{OK: "equilibrium", Ptrip: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, []byte(`"ptrip":0`)) {
		t.Errorf("zero ptrip omitted from the wire: %s", payload)
	}
}

func TestOversizedRequestLine(t *testing.T) {
	metrics := telemetry.NewRegistry()
	c, err := NewCoordinator(gameConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeWith(c, ServeOptions{Addr: "127.0.0.1:0", Metrics: metrics})
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One request line just past the 1 MiB scanner limit. The server
	// must answer with an error response, not kill the connection
	// silently.
	line := bytes.Repeat([]byte("x"), maxRequestLine+2)
	line[len(line)-1] = '\n'
	if _, err := conn.Write(line); err != nil {
		t.Fatal(err)
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no error response for an oversized request: %v", err)
	}
	if !contains(reply, "exceeds") {
		t.Errorf("reply %q does not mention the line limit", reply)
	}
	if got := metrics.Counter("coord.oversized_requests").Value(); got != 1 {
		t.Errorf("coord.oversized_requests = %d, want 1", got)
	}
}

// TestJSONLineFraming pins the server's line framing: a blank line is
// a malformed request, "\r\n" ends a line like "\n", and a final line
// without '\n' is still served before EOF closes the connection.
func TestJSONLineFraming(t *testing.T) {
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("\n" + `{"type":"dance"}` + "\r\n" + `{"type":"waltz"}`)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for i, want := range []string{
		"malformed request: unexpected end of JSON input",
		`unknown request type "dance"`,
		`unknown request type "waltz"`,
	} {
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		resp, err := decodeJSONResponse(line)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Error != want {
			t.Errorf("response %d: error %q, want %q", i, resp.Error, want)
		}
	}
	if extra, err := r.ReadBytes('\n'); err == nil {
		t.Errorf("unexpected response %q after the last line", extra)
	}
}

func TestClientAgainstClosedServer(t *testing.T) {
	srv, client := startServer(t)
	_ = srv.Close()
	if err := client.SubmitProfile(profileFor(t, "a", "decision", 1, 100)); err == nil {
		t.Error("submit to a closed server should fail")
	}
}

// TestUnknownRequestTypesShareOneCounter sends 1000 distinct unknown
// request types on one connection, over each codec. Every request must
// draw its own error, and the server's per-type counters must stay the
// fixed set: a client cannot mint metric names.
func TestUnknownRequestTypesShareOneCounter(t *testing.T) {
	const n = 1000
	for _, proto := range []Proto{ProtoJSON, ProtoBinary} {
		t.Run(string(proto), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			srv, _ := startServerWith(t, ServeOptions{Metrics: reg})
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var wire []byte
			if proto == ProtoBinary {
				wire = append(wire, binPreamble[:]...)
			}
			for i := 0; i < n; i++ {
				req := request{Type: fmt.Sprintf("t%d", i)}
				if proto == ProtoBinary {
					wire = appendFrame(wire, appendRequest(nil, req))
				} else if wire, err = appendJSONRequest(wire, req); err != nil {
					t.Fatal(err)
				}
			}
			go func() { _, _ = conn.Write(wire) }()
			br := bufio.NewReader(conn)
			var scratch []byte
			for i := 0; i < n; i++ {
				var resp response
				if proto == ProtoBinary {
					payload, err := readFrame(br, &scratch)
					if err != nil {
						t.Fatalf("response %d: %v", i, err)
					}
					resp, err = decodeResponse(payload)
					if err != nil {
						t.Fatalf("response %d: %v", i, err)
					}
				} else {
					line, err := br.ReadBytes('\n')
					if err != nil {
						t.Fatalf("response %d: %v", i, err)
					}
					if resp, err = decodeJSONResponse(line); err != nil {
						t.Fatalf("response %d: %v", i, err)
					}
				}
				if want := fmt.Sprintf("unknown request type %q", fmt.Sprintf("t%d", i)); resp.Error != want {
					t.Fatalf("response %d: error %q, want %q", i, resp.Error, want)
				}
			}
			_ = srv.Close()

			var names []string
			for name := range reg.Snapshot().Counters {
				if strings.HasPrefix(name, "coord.requests.") {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			want := []string{"coord.requests.malformed", "coord.requests.strategies",
				"coord.requests.submit", "coord.requests.unknown"}
			if !reflect.DeepEqual(names, want) {
				if len(names) > len(want) {
					names = append(names[:len(want)], "...")
				}
				t.Errorf("per-type counters = %v, want %v", names, want)
			}
			if got := reg.Counter("coord.requests.unknown").Value(); got != n {
				t.Errorf("coord.requests.unknown = %d, want %d", got, n)
			}
		})
	}
}
