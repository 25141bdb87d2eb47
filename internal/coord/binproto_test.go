package coord

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"sprintgame/internal/telemetry"
)

// protoRequests covers the full request surface: every field set and
// unset, trace/parent propagation, and awkward float columns.
func protoRequests() []request {
	return []request{
		{},
		{Type: "strategies"},
		{Type: "strategies", Trace: "t-123", Parent: "s-456"},
		{Type: "submit", Profile: &Profile{
			Agent: "a1", Class: "decision",
			Values:  []float64{0, 1, 1.5, 2.25, 1e-300, 1e300, -3.5},
			Weights: []float64{1, 2, 3, 4, 5, 6, 7},
		}},
		{Type: "submit", Trace: "trace", Parent: "parent", Profile: &Profile{
			Agent: "a2", Class: "x", Values: []float64{math.Inf(1), math.Inf(-1), -0.0},
			Weights: []float64{0.1, 0.2, 0.3},
		}},
		{Type: "submit", Profile: &Profile{Agent: "empty", Class: "c"}},
		{Type: "dance"},
	}
}

// protoResponses covers the full response surface, including the
// legitimate Ptrip == 0 and nil vs populated strategy maps.
func protoResponses() []response {
	return []response{
		{},
		{OK: "profile accepted", Trace: "t"},
		{Error: "malformed request: boom"},
		{OK: "equilibrium", Ptrip: 0},
		{OK: "equilibrium", Ptrip: 0.12345678901234567, Trace: "t-9",
			Strategies: map[string]Strategy{
				"decision": {Class: "decision", Threshold: 3.25, SprintProb: 0.5, Ptrip: 0.1, Agents: 8},
				"pagerank": {Class: "pagerank", Threshold: -1.5, SprintProb: 1, Ptrip: 0.1, Agents: 4},
			}},
	}
}

// TestBinaryEmptyStrategiesMatchesJSON pins the normalization shared
// with JSON omitempty: an empty strategy map is absent on the wire and
// decodes as nil in both protocols.
func TestBinaryEmptyStrategiesMatchesJSON(t *testing.T) {
	resp := response{OK: "x", Strategies: map[string]Strategy{}}
	got, err := decodeResponse(appendResponse(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Strategies != nil {
		t.Errorf("empty map decoded as %#v, want nil (JSON omitempty parity)", got.Strategies)
	}
}

// TestBinaryPayloadRoundTrip pins the codec: encode → decode must
// reproduce every request and response exactly.
func TestBinaryPayloadRoundTrip(t *testing.T) {
	for i, req := range protoRequests() {
		got, err := decodeRequest(appendRequest(nil, req))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("request %d: round trip changed it:\n got  %+v\n want %+v", i, got, req)
		}
	}
	for i, resp := range protoResponses() {
		got, err := decodeResponse(appendResponse(nil, resp))
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("response %d: round trip changed it:\n got  %+v\n want %+v", i, got, resp)
		}
	}
}

// TestBinaryJSONEquivalence pins cross-protocol equivalence over the
// full message surface: decoding a message from either wire form must
// yield the same struct. (Float columns with non-finite values are
// JSON-unencodable and are exercised by TestBinaryPayloadRoundTrip.)
func TestBinaryJSONEquivalence(t *testing.T) {
	for i, req := range protoRequests() {
		if req.Profile != nil && !allFinite(req.Profile.Values) {
			continue
		}
		line, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON request
		if err := json.Unmarshal(line, &viaJSON); err != nil {
			t.Fatal(err)
		}
		viaBin, err := decodeRequest(appendRequest(nil, req))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaJSON, viaBin) {
			t.Errorf("request %d: JSON and binary decode differ:\n json   %+v\n binary %+v", i, viaJSON, viaBin)
		}
	}
	for i, resp := range protoResponses() {
		line, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON response
		if err := json.Unmarshal(line, &viaJSON); err != nil {
			t.Fatal(err)
		}
		viaBin, err := decodeResponse(appendResponse(nil, resp))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaJSON, viaBin) {
			t.Errorf("response %d: JSON and binary decode differ:\n json   %+v\n binary %+v", i, viaJSON, viaBin)
		}
	}
}

// TestBinaryProtocolEndToEnd drives one server with a JSON client and a
// binary client submitting identical profiles, and checks the solved
// strategies and Ptrip are byte-identical across protocols.
func TestBinaryProtocolEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, _ := startServerWith(t, ServeOptions{Metrics: reg})
	jsonClient := NewClient(srv.Addr())
	binClient := NewClientWith(srv.Addr(), ClientOptions{Proto: ProtoBinary})
	defer jsonClient.Close()
	defer binClient.Close()

	for i := 0; i < 6; i++ {
		p := profileFor(t, fmt.Sprintf("d%d", i), "decision", uint64(i+1), 400)
		if err := binClient.SubmitProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		p := profileFor(t, fmt.Sprintf("p%d", i), "pagerank", uint64(i+50), 400)
		if err := jsonClient.SubmitProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	viaBin, ptripBin, err := binClient.FetchStrategies()
	if err != nil {
		t.Fatal(err)
	}
	viaJSON, ptripJSON, err := jsonClient.FetchStrategies()
	if err != nil {
		t.Fatal(err)
	}
	if ptripBin != ptripJSON {
		t.Errorf("ptrip differs across protocols: binary %v json %v", ptripBin, ptripJSON)
	}
	if !reflect.DeepEqual(viaBin, viaJSON) {
		t.Errorf("strategies differ across protocols:\n binary %+v\n json   %+v", viaBin, viaJSON)
	}
	if got := reg.Counter("coord.connections.binary").Value(); got != 1 {
		t.Errorf("coord.connections.binary = %d, want 1", got)
	}
	// Application errors must traverse the binary protocol too.
	if err := binClient.SubmitProfile(Profile{Agent: "bad"}); err == nil {
		t.Error("invalid profile should be rejected over binary")
	}
}

// TestBinaryOversizedFrame mirrors TestOversizedRequestLine for the
// binary protocol: a frame declaring more than the 1 MiB limit draws an
// explanatory error response and the connection closes.
func TestBinaryOversizedFrame(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, _ := startServerWith(t, ServeOptions{Metrics: reg})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := append([]byte{}, binPreamble[:]...)
	msg = binary.AppendUvarint(msg, maxFramePayload+1)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	payload, err := readFrame(br, new([]byte))
	if err != nil {
		t.Fatalf("no error response for an oversized frame: %v", err)
	}
	resp, err := decodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(resp.Error, "exceeds") {
		t.Errorf("reply %q does not mention the frame limit", resp.Error)
	}
	if got := reg.Counter("coord.oversized_requests").Value(); got != 1 {
		t.Errorf("coord.oversized_requests = %d, want 1", got)
	}
	// The connection must be closed afterwards.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Error("connection still open after an oversized frame")
	}
}

// TestBinaryMalformedPayload checks a complete frame with a garbage
// payload draws an error response and the connection keeps serving
// (the stream is still frame-aligned).
func TestBinaryMalformedPayload(t *testing.T) {
	srv, _ := startServerWith(t, ServeOptions{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := append([]byte{}, binPreamble[:]...)
	msg = appendFrame(msg, []byte{0xff, 0xff, 0xff})
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var buf []byte
	payload, err := readFrame(br, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(resp.Error, "malformed request") {
		t.Errorf("reply %q does not mention a malformed request", resp.Error)
	}
	// A healthy request on the same connection must still work.
	good := appendFrame(nil, appendRequest(nil, request{Type: "dance"}))
	if _, err := conn.Write(good); err != nil {
		t.Fatal(err)
	}
	payload, err = readFrame(br, &buf)
	if err != nil {
		t.Fatalf("connection dead after a malformed payload: %v", err)
	}
	if resp, err = decodeResponse(payload); err != nil {
		t.Fatal(err)
	}
	if !contains(resp.Error, "unknown request type") {
		t.Errorf("reply %q", resp.Error)
	}
}

// TestBinaryBadPreamble checks a NUL-led connection with a wrong
// preamble is dropped without a handler panic.
func TestBinaryBadPreamble(t *testing.T) {
	srv, _ := startServerWith(t, ServeOptions{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0x00, 'X', 'X', 'X', 9}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(conn).ReadByte(); err == nil {
		t.Error("server kept a connection with a bad preamble")
	}
}

// TestClientPoolReusesAndRecovers checks (a) round trips reuse one
// pooled connection, and (b) when the server idle-closes a pooled
// connection the client transparently re-dials and the request still
// succeeds (the retry-once path).
func TestClientPoolReusesAndRecovers(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, _ := startServerWith(t, ServeOptions{ConnTimeout: 100 * time.Millisecond})
	client := NewClientWith(srv.Addr(), ClientOptions{Proto: ProtoBinary, Metrics: reg})
	defer client.Close()

	p := profileFor(t, "a1", "decision", 1, 200)
	for i := 0; i < 3; i++ {
		if err := client.SubmitProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("coord.client.dials").Value(); got != 1 {
		t.Fatalf("coord.client.dials = %d after 3 requests, want 1", got)
	}
	// Let the server idle-close the pooled connection, then request
	// again: the client must recover by re-dialing.
	time.Sleep(250 * time.Millisecond)
	if err := client.SubmitProfile(p); err != nil {
		t.Fatalf("request after idle close failed: %v", err)
	}
	if got := reg.Counter("coord.client.dials").Value(); got != 2 {
		t.Errorf("coord.client.dials = %d, want 2 (one re-dial)", got)
	}
	if got := reg.Counter("coord.client.errors").Value(); got != 0 {
		t.Errorf("coord.client.errors = %d, want 0 (recovery is transparent)", got)
	}
}

// TestCodecAllocs budgets both codecs' hot paths: encoding a request or
// response into reused scratch must not allocate (bar the binary
// codec's sorted key slice), and decoding must stay within a small
// fixed budget (the returned strings/slices).
func TestCodecAllocs(t *testing.T) {
	req := request{Type: "submit", Trace: "t-1", Parent: "s-1", Profile: &Profile{
		Agent: "agent-7", Class: "decision",
		Values:  make([]float64, 250),
		Weights: make([]float64, 250),
	}}
	for i := range req.Profile.Values {
		req.Profile.Values[i] = float64(i) * 0.25
		req.Profile.Weights[i] = 1 / float64(i+1)
	}
	resp := response{OK: "equilibrium", Ptrip: 0.25, Trace: "t-1",
		Strategies: map[string]Strategy{
			"decision": {Class: "decision", Threshold: 2.5, SprintProb: 0.4, Ptrip: 0.25, Agents: 100},
			"pagerank": {Class: "pagerank", Threshold: 1.5, SprintProb: 0.7, Ptrip: 0.25, Agents: 28},
		}}

	var buf []byte
	if n := testing.AllocsPerRun(100, func() {
		buf = appendRequest(buf[:0], req)
	}); n > 0 {
		t.Errorf("appendRequest allocates %.1f times per op, want 0", n)
	}
	reqBytes := append([]byte(nil), buf...)
	// Request decode: Profile, two float columns, four strings.
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeRequest(reqBytes); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("decodeRequest allocates %.1f times per op, budget 8", n)
	}
	// Response encode allocates only the sorted key slice.
	if n := testing.AllocsPerRun(100, func() {
		buf = appendResponse(buf[:0], resp)
	}); n > 2 {
		t.Errorf("appendResponse allocates %.1f times per op, budget 2", n)
	}
	respBytes := append([]byte(nil), buf...)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeResponse(respBytes); err != nil {
			t.Fatal(err)
		}
	}); n > 12 {
		t.Errorf("decodeResponse allocates %.1f times per op, budget 12", n)
	}

	// The JSON-lines codec: encoding into reused scratch allocates
	// nothing (the sorted keys of a small map stay on the stack).
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = appendJSONRequest(buf[:0], req)
	}); n > 0 {
		t.Errorf("appendJSONRequest allocates %.1f times per op, want 0", n)
	}
	line := append([]byte(nil), buf...)
	// Request decode: Profile, two float slices, four strings.
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeJSONRequest(line); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("decodeJSONRequest allocates %.1f times per op, budget 8", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = appendJSONResponse(buf[:0], resp)
	}); n > 0 {
		t.Errorf("appendJSONResponse allocates %.1f times per op, want 0", n)
	}
	line = append([]byte(nil), buf...)
	// Response decode: the map, its keys (each class shares its key's
	// string), ok and trace.
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeJSONResponse(line); err != nil {
			t.Fatal(err)
		}
	}); n > 6 {
		t.Errorf("decodeJSONResponse allocates %.1f times per op, budget 6", n)
	}
}

// TestBinaryFrameSmallerThanJSON sanity-checks the point of the codec:
// a realistic submit request must be materially smaller on the binary
// wire than as a JSON line.
func TestBinaryFrameSmallerThanJSON(t *testing.T) {
	p := profileFor(t, "agent-1", "decision", 7, 2000)
	req := request{Type: "submit", Profile: &p, Trace: "0123456789abcdef", Parent: "89abcdef"}
	binSize := len(appendFrame(nil, appendRequest(nil, req)))
	line, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	jsonSize := len(line) + 1
	// Empirical histograms have dense mantissas, so the win is bounded;
	// require at least a 25% reduction.
	if binSize*4 > jsonSize*3 {
		t.Errorf("binary frame %dB is not at least 25%% smaller than JSON line %dB", binSize, jsonSize)
	}
}

// FuzzBinaryRequestDecode hammers the request decoder with arbitrary
// payloads: it must error cleanly or round-trip, never panic.
func FuzzBinaryRequestDecode(f *testing.F) {
	for _, req := range protoRequests() {
		f.Add(appendRequest(nil, req))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 'x'})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := decodeRequest(payload)
		if err != nil {
			return
		}
		// A successfully decoded payload must re-encode canonically and
		// decode to a bit-identical struct. Compare the canonical
		// encodings, not the structs: DeepEqual rejects NaN == NaN even
		// though the codec preserves NaN bit patterns exactly.
		enc := appendRequest(nil, req)
		again, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(enc, appendRequest(nil, again)) {
			t.Fatalf("unstable round trip: %+v vs %+v", req, again)
		}
	})
}

// FuzzBinaryResponseDecode is the response-side twin.
func FuzzBinaryResponseDecode(f *testing.F) {
	for _, resp := range protoResponses() {
		f.Add(appendResponse(nil, resp))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x80}, 32))
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := decodeResponse(payload)
		if err != nil {
			return
		}
		enc := appendResponse(nil, resp)
		again, err := decodeResponse(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(enc, appendResponse(nil, again)) {
			t.Fatalf("unstable round trip: %+v vs %+v", resp, again)
		}
	})
}

// FuzzBinaryFrame feeds arbitrary bytes to the frame reader: truncated
// frames, oversized length prefixes, and garbage must all error cleanly
// (no panic, no hang, no oversized allocation).
func FuzzBinaryFrame(f *testing.F) {
	f.Add(appendFrame(nil, []byte("hello")))
	f.Add(binary.AppendUvarint(nil, maxFramePayload+1))
	f.Add(binary.AppendUvarint(nil, 1<<62))
	f.Add([]byte{5, 'a'}) // truncated payload
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			payload, err := readFrame(br, &buf)
			if err != nil {
				return
			}
			if len(payload) > maxFramePayload {
				t.Fatalf("frame reader returned %d bytes past the limit", len(payload))
			}
		}
	})
}
