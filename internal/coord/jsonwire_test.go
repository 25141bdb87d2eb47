package coord

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
)

// jsonEdgeFloats are the values where encoding/json's float format
// changes shape: zero and its sign, the 'e' thresholds on either side,
// subnormals, the extremes, and a negative one-digit exponent.
var jsonEdgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, -1e-7, 9.99999e-7,
	1e20, 1e21, -1e21, 123456789e13, 5e-324, -5e-324, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3, 1e-300,
}

// jsonEdgeStrings exercise every escape encoding/json applies.
var jsonEdgeStrings = []string{
	"", "plain", `quote " and \ backslash`, "<script>&amp;</script>",
	"ctl \x00\x01\x07\b\f\n\r\t\x1f\x7f", "non-ASCII: ünïcødé 漢字 🚀",
	"invalid \xff\xfe utf8 \xc3", "truncated \xe2\x82", "line\u2028para\u2029sep",
	"\ufffd literal replacement",
}

func marshalLine(t *testing.T, v any) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func randJSONString(r *rand.Rand) string {
	if r.Intn(4) == 0 {
		return jsonEdgeStrings[r.Intn(len(jsonEdgeStrings))]
	}
	const alphabet = "abcXYZ019 _-.:<>&\"\\\x00\x1f\x7f\xff"
	var sb strings.Builder
	for n := r.Intn(12); n > 0; n-- {
		switch r.Intn(10) {
		case 0:
			sb.WriteRune(rune(0x80 + r.Intn(0x3000)))
		case 1:
			sb.WriteRune([]rune{0x2028, 0x2029, 0xfffd, 0x1f680}[r.Intn(4)])
		default:
			sb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
	}
	return sb.String()
}

func randJSONFloat(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return jsonEdgeFloats[r.Intn(len(jsonEdgeFloats))]
	case 1:
		return r.Float64()
	case 2:
		return float64(r.Intn(2000)-1000) / 8
	}
	for {
		if f := math.Float64frombits(r.Uint64()); isFinite(f) {
			return f
		}
	}
}

func randJSONFloats(r *rand.Rand) []float64 {
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	xs := make([]float64, 1+r.Intn(20))
	for i := range xs {
		xs[i] = randJSONFloat(r)
	}
	return xs
}

func randRequest(r *rand.Rand) request {
	req := request{Type: []string{"submit", "strategies", "", "dance"}[r.Intn(4)]}
	if r.Intn(2) == 0 {
		req.Type = randJSONString(r)
	}
	if r.Intn(2) == 0 {
		req.Profile = &Profile{Agent: randJSONString(r), Class: randJSONString(r),
			Values: randJSONFloats(r), Weights: randJSONFloats(r)}
	}
	if r.Intn(2) == 0 {
		req.Trace = randJSONString(r)
	}
	if r.Intn(2) == 0 {
		req.Parent = randJSONString(r)
	}
	return req
}

func randResponse(r *rand.Rand) response {
	resp := response{Ptrip: randJSONFloat(r)}
	if r.Intn(2) == 0 {
		resp.OK = randJSONString(r)
	}
	if r.Intn(3) == 0 {
		resp.Error = randJSONString(r)
	}
	switch r.Intn(4) {
	case 0:
	case 1:
		resp.Strategies = map[string]Strategy{}
	default:
		resp.Strategies = map[string]Strategy{}
		for n := 1 + r.Intn(12); n > 0; n-- {
			resp.Strategies[randJSONString(r)] = Strategy{
				Class: randJSONString(r), Threshold: randJSONFloat(r),
				SprintProb: randJSONFloat(r), Ptrip: randJSONFloat(r),
				Agents: r.Intn(1<<20) - 10,
			}
		}
	}
	if r.Intn(2) == 0 {
		resp.Trace = randJSONString(r)
	}
	return resp
}

// jsonEdgeRequests and jsonEdgeResponses put every edge float and
// string in every field that carries one.
func jsonEdgeRequests() []request {
	reqs := protoRequests()
	for i, s := range jsonEdgeStrings {
		reqs = append(reqs, request{Type: s, Trace: s, Parent: s,
			Profile: &Profile{Agent: s, Class: s, Values: jsonEdgeFloats, Weights: jsonEdgeFloats[i:]}})
	}
	return reqs
}

func jsonEdgeResponses() []response {
	resps := protoResponses()
	resps = append(resps, response{OK: "x", Strategies: map[string]Strategy{}})
	for _, s := range jsonEdgeStrings {
		strategies := map[string]Strategy{}
		for i, f := range jsonEdgeFloats {
			strategies[fmt.Sprintf("%s%d", s, i)] = Strategy{
				Class: s, Threshold: f, SprintProb: -f, Ptrip: f / 3, Agents: i - 3}
		}
		resps = append(resps, response{OK: s, Error: s, Trace: s, Ptrip: jsonEdgeFloats[len(s)%len(jsonEdgeFloats)],
			Strategies: strategies})
	}
	for _, f := range jsonEdgeFloats {
		resps = append(resps, response{OK: "equilibrium", Ptrip: f})
	}
	return resps
}

// checkJSONRequestBytes compares appendJSONRequest with encoding/json,
// errors included, and appends after existing bytes to catch encoders
// that index from the start of the buffer.
func checkJSONRequestBytes(t *testing.T, req request) {
	t.Helper()
	want, wantErr := marshalLine(t, req)
	got, err := appendJSONRequest([]byte("prefix"), req)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("request %+v: error %v, encoding/json %v", req, err, wantErr)
	}
	if err == nil && !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("request bytes differ:\n got  %q\n want %q", got[len("prefix"):], want)
	}
}

func checkJSONResponseBytes(t *testing.T, resp response) {
	t.Helper()
	want, wantErr := marshalLine(t, resp)
	got, err := appendJSONResponse([]byte("prefix"), resp)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("response %+v: error %v, encoding/json %v", resp, err, wantErr)
	}
	if err == nil && !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("response bytes differ:\n got  %q\n want %q", got[len("prefix"):], want)
	}
}

// TestJSONEncodeMatchesEncodingJSON pins the wire format: the
// hand-written encoders emit exactly encoding/json's bytes, and refuse
// NaN and ±Inf with its error.
func TestJSONEncodeMatchesEncodingJSON(t *testing.T) {
	for _, req := range jsonEdgeRequests() {
		checkJSONRequestBytes(t, req)
	}
	for _, resp := range jsonEdgeResponses() {
		checkJSONResponseBytes(t, resp)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkJSONRequestBytes(t, request{Type: "submit", Profile: &Profile{Values: []float64{1, bad}}})
		checkJSONRequestBytes(t, request{Type: "submit", Profile: &Profile{Values: []float64{1}, Weights: []float64{bad}}})
		checkJSONResponseBytes(t, response{Ptrip: bad})
		checkJSONResponseBytes(t, response{Strategies: map[string]Strategy{"a": {Threshold: bad}}})
		checkJSONResponseBytes(t, response{Strategies: map[string]Strategy{"a": {}, "b": {SprintProb: bad}}})
		checkJSONResponseBytes(t, response{Strategies: map[string]Strategy{"a": {Ptrip: bad}}})
		if _, err := appendJSONResponse(nil, response{Strategies: map[string]Strategy{"a": {Threshold: bad}}}); err == nil {
			t.Errorf("threshold %v encoded without an error", bad)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkJSONRequestBytes(t, randRequest(r))
		checkJSONResponseBytes(t, randResponse(r))
	}
}

// TestJSONCanonicalLinesTakeFastPath checks that every line the
// encoders emit (bar the escaped or invalid strings encoding/json
// itself rewrites) decodes on the single-pass path, to json.Unmarshal's
// result, so the codec's own traffic never pays for reflection.
func TestJSONCanonicalLinesTakeFastPath(t *testing.T) {
	plain := func(s string) bool {
		return !strings.ContainsAny(s, "\"\\<>&\u2028\u2029") && strings.ToValidUTF8(s, "?") == s &&
			strings.IndexFunc(s, func(c rune) bool { return c < ' ' }) < 0
	}
	r := rand.New(rand.NewSource(2))
	scanned := 0
	for i := 0; i < 5000; i++ {
		req := randRequest(r)
		line, err := appendJSONRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := scanJSONRequest(line)
		var want request
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		canonical := plain(req.Type) && plain(req.Trace) && plain(req.Parent) &&
			(req.Profile == nil || plain(req.Profile.Agent) && plain(req.Profile.Class) &&
				req.Profile.Values != nil && req.Profile.Weights != nil)
		if ok != canonical {
			t.Fatalf("scanJSONRequest ok = %v, want %v, on %s", ok, canonical, line)
		}
		if ok {
			scanned++
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fast path %+v, json.Unmarshal %+v, on %s", got, want, line)
			}
		}
	}
	for i := 0; i < 5000; i++ {
		resp := randResponse(r)
		line, err := appendJSONResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := scanJSONResponse(line)
		var want response
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		canonical := plain(resp.OK) && plain(resp.Error) && plain(resp.Trace)
		for k, s := range resp.Strategies {
			canonical = canonical && plain(k) && plain(s.Class)
		}
		if ok != canonical {
			t.Fatalf("scanJSONResponse ok = %v, want %v, on %s", ok, canonical, line)
		}
		if ok {
			scanned++
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fast path %+v, json.Unmarshal %+v, on %s", got, want, line)
			}
		}
	}
	if scanned < 1000 {
		t.Errorf("only %d of 10000 random lines were canonical", scanned)
	}
	for _, resp := range protoResponses() {
		line, err := appendJSONResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := scanJSONResponse(line); !ok {
			t.Errorf("server response %s is not canonical", line)
		}
	}
}

// jsonDecodeSeeds are canonical lines and their case-changed, escaped,
// null, duplicate-key, unknown-field and malformed variants.
var jsonRequestSeeds = []string{
	`{"type":"strategies"}`,
	`{"type":"strategies","trace":"0123456789abcdef","parent":"89abcdef01234567"}`,
	`{"type":"submit","profile":{"agent":"a1","class":"decision","values":[1,2,6],"weights":[0.5,0.3,0.2]}}`,
	`{"type":"submit","profile":{"agent":"a1","class":"c","values":[],"weights":[-0,1e-7,1E+3,2.5e-300]}}`,
	` { "type" : "submit" , "profile" : { "agent" : "a" , "values" : [ 1 , 2 ] } } ` + "\r\n",
	"{\"type\":\"submit\",\f\"trace\":\"x\"}", "{\"type\":\"submit\"}\v",
	`{}`, `{"profile":{}}`,
	`{"Type":"strategies"}`, `{"TYPE":"submit","Profile":{"AGENT":"a","Values":[1]}}`,
	`{"type":"strat\u0065gies"}`, `{"type":"a\"b"}`, `{"type":"\ud83d\ude80"}`,
	`{"type":null}`, `{"profile":null}`, `null`, `{"type":"submit","profile":{"values":null}}`,
	`{"type":"a","type":"b"}`, `{"profile":{"agent":"a"},"profile":{"class":"c"}}`,
	`{"profile":{"values":[1,2],"values":[3]}}`,
	`{"type":"submit","extra":1}`, `{"type":"submit","extra":{"nested":[1,"x",null]}}`,
	`{"type":"submit","profile":{"agent":"a","unknown":true}}`,
	`{"type":"x\xff"}`, "{\"type\":\"tab\there\"}",
	`{"type":5}`, `{"profile":{"values":["1"]}}`, `{"profile":{"values":[1e400]}}`,
	`{"profile":{"values":[01]}}`, `{"profile":{"values":[1.]}}`, `{"profile":{"values":[.5]}}`,
	`{"profile":{"values":[-]}}`, `{"profile":{"values":[1,]}}`, `{"profile":{"values":[Infinity]}}`,
	`{"profile":{"values":[0x10]}}`, `{"profile":{"values":[+1]}}`, `{"profile":{"values":[1e]}}`,
	`{"type":"submit"} trailing`, `{"type":"submit"}{}`, `{"type":"submit"`, `{"type":"submit",}`,
	`{"type" "submit"}`, `["type"]`, ``, `"submit"`, `{"profile":5}`, `{"profile":[1]}`,
}

var jsonResponseSeeds = []string{
	`{"ptrip":0}`,
	`{"ok":"profile accepted","ptrip":0,"trace":"0123456789abcdef"}`,
	`{"error":"coord: no profiles registered","ptrip":0,"trace":"t"}`,
	`{"ok":"equilibrium","strategies":{"decision":{"class":"decision","threshold":3.25,"sprint_prob":0.5,"ptrip":0.1,"agents":8},"pagerank":{"class":"pagerank","threshold":-1.5,"sprint_prob":1,"ptrip":0.1,"agents":4}},"ptrip":0.1,"trace":"t-9"}`,
	`{"ok":"x","strategies":{},"ptrip":1e-7}`,
	`{"OK":"x","Ptrip":0.5}`, `{"ok":"x","strategies":{"a":{"Class":"a","SPRINT_PROB":0.5}},"ptrip":0}`,
	`{"ok":"\u0065quilibrium","ptrip":0}`, `{"ok":"\u003c","ptrip":0}`,
	`{"ok":null,"ptrip":null}`, `{"strategies":null}`, `{"strategies":{"a":null}}`,
	`{"ptrip":1,"ptrip":2}`, `{"strategies":{"a":{"agents":1},"a":{"threshold":2}}}`,
	`{"strategies":{"a":{"agents":1,"agents":2}}}`,
	`{"ptrip":0,"unknown":"x"}`, `{"strategies":{"a":{"class":"a","extra":[]}},"ptrip":0}`,
	`{"strategies":{"a":{"agents":1.5}}}`, `{"strategies":{"a":{"agents":1e2}}}`,
	`{"strategies":{"a":{"agents":-0}}}`, `{"strategies":{"a":{"agents":99999999999999999999}}}`,
	`{"strategies":{"a":{"agents":"3"}}}`, `{"strategies":{"\xff":{}}}`, `{"strategies":[]}`,
	`{"ptrip":-0}`, `{"ptrip":1e999}`, `{"ptrip":true}`, `{"ptrip":0}` + "\n", `{"ptrip":0} x`,
	`{"ptrip":0`, ``, `null`,
}

func fuzzDecode[T any](t *testing.T, line []byte, decode func([]byte) (T, error)) {
	got, err := decode(line)
	var want T
	wantErr := json.Unmarshal(line, &want)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%q: error %v, json.Unmarshal %v", line, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded %+v, json.Unmarshal %+v", line, got, want)
	}
}

// FuzzJSONRequestDecode checks decodeJSONRequest against json.Unmarshal
// on any line: the same request, or the same error.
func FuzzJSONRequestDecode(f *testing.F) {
	for _, s := range jsonRequestSeeds {
		f.Add([]byte(s))
	}
	for _, req := range jsonEdgeRequests() {
		if line, err := appendJSONRequest(nil, req); err == nil {
			f.Add(line)
		}
	}
	f.Fuzz(func(t *testing.T, line []byte) { fuzzDecode(t, line, decodeJSONRequest) })
}

// FuzzJSONResponseDecode checks decodeJSONResponse against
// json.Unmarshal on any line: the same response, or the same error.
func FuzzJSONResponseDecode(f *testing.F) {
	for _, s := range jsonResponseSeeds {
		f.Add([]byte(s))
	}
	for _, resp := range jsonEdgeResponses() {
		if line, err := appendJSONResponse(nil, resp); err == nil {
			f.Add(line)
		}
	}
	f.Fuzz(func(t *testing.T, line []byte) { fuzzDecode(t, line, decodeJSONResponse) })
}

// TestJSONClientLongResponseLine serves one strategies response of 200
// classes, a line several times the client reader's 4 KiB buffer, and
// checks the client decodes all of it.
func TestJSONClientLongResponseLine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer ln.Close()
	want := response{OK: "equilibrium", Ptrip: 0.0625, Strategies: map[string]Strategy{}}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("class-%03d", i)
		want.Strategies[name] = Strategy{Class: name, Threshold: 1 + float64(i)/7,
			SprintProb: float64(i) / 199, Ptrip: want.Ptrip, Agents: i + 1}
	}
	line, err := appendJSONResponse(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(line) < 4*4096 {
		t.Fatalf("response line is %d bytes, want several times the 4 KiB reader buffer", len(line))
	}
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		// Two round trips on one pooled connection: the long line must
		// not leave bytes behind for the second read.
		br := bufio.NewReader(conn)
		for i := 0; i < 2; i++ {
			if _, err := br.ReadBytes('\n'); err != nil {
				served <- err
				return
			}
			if _, err := conn.Write(line); err != nil {
				served <- err
				return
			}
		}
		served <- nil
	}()
	client := NewClient(ln.Addr().String())
	defer client.Close()
	for i := 0; i < 2; i++ {
		got, ptrip, err := client.FetchStrategies()
		if err != nil {
			t.Fatal(err)
		}
		if ptrip != want.Ptrip || !reflect.DeepEqual(got, want.Strategies) {
			t.Fatalf("round trip %d: decoded %d strategies, ptrip %v; want %d, %v",
				i, len(got), ptrip, len(want.Strategies), want.Ptrip)
		}
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestJSONClientRejectsOversizedResponse serves a response line past
// maxRequestLine: the client must fail with errOversized instead of
// buffering the whole line.
func TestJSONClientRejectsOversizedResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadBytes('\n'); err != nil {
			return
		}
		line := append([]byte(`{"ok":"`), bytes.Repeat([]byte("x"), maxRequestLine)...)
		_, _ = conn.Write(append(line, `"}`+"\n"...))
	}()
	client := NewClient(ln.Addr().String())
	defer client.Close()
	if _, _, err := client.FetchStrategies(); !errors.Is(err, errOversized) {
		t.Fatalf("err = %v, want %v", err, errOversized)
	}
}
