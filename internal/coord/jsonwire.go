package coord

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The JSON-lines codec for the protocol's two messages, request and
// response, without reflection. The encoders append exactly the bytes
// encoding/json emits for the same value (json.Marshal plus '\n', which
// is also what json.Encoder.Encode writes): field order, omitempty,
// sorted map keys, HTML-safe string escaping and encoding/json's float
// format. A message holding NaN or ±Inf is refused with the error
// json.Marshal gives for it.
//
// The decoders read a canonical line in one pass: known keys in exact
// case, each at most once, no escapes in strings, valid UTF-8, no
// nulls, an integral agents count. Any other line, valid or not, goes
// to json.Unmarshal on the same bytes, so the result (partial fields
// and error text included) is always what json.Unmarshal gives.
// Case-folded keys, unknown fields and escapes from hand-typed clients
// keep encoding/json's semantics.

// appendJSONRequest appends req as one JSON line.
func appendJSONRequest(b []byte, req request) ([]byte, error) {
	if p := req.Profile; p != nil && !(allFinite(p.Values) && allFinite(p.Weights)) {
		_, err := json.Marshal(req)
		return b, err
	}
	b = append(b, `{"type":`...)
	b = appendJSONString(b, req.Type)
	if p := req.Profile; p != nil {
		b = append(b, `,"profile":{"agent":`...)
		b = appendJSONString(b, p.Agent)
		b = append(b, `,"class":`...)
		b = appendJSONString(b, p.Class)
		b = append(b, `,"values":`...)
		b = appendJSONFloats(b, p.Values)
		b = append(b, `,"weights":`...)
		b = appendJSONFloats(b, p.Weights)
		b = append(b, '}')
	}
	if req.Trace != "" {
		b = append(b, `,"trace":`...)
		b = appendJSONString(b, req.Trace)
	}
	if req.Parent != "" {
		b = append(b, `,"parent":`...)
		b = appendJSONString(b, req.Parent)
	}
	return append(b, '}', '\n'), nil
}

// appendJSONResponse appends resp as one JSON line.
func appendJSONResponse(b []byte, resp response) ([]byte, error) {
	var arr [8]string
	keys := arr[:0]
	finite := isFinite(resp.Ptrip)
	for k, s := range resp.Strategies {
		keys = append(keys, k)
		finite = finite && isFinite(s.Threshold) && isFinite(s.SprintProb) && isFinite(s.Ptrip)
	}
	if !finite {
		_, err := json.Marshal(resp)
		return b, err
	}
	b = append(b, '{')
	if resp.OK != "" {
		b = append(b, `"ok":`...)
		b = appendJSONString(b, resp.OK)
		b = append(b, ',')
	}
	if resp.Error != "" {
		b = append(b, `"error":`...)
		b = appendJSONString(b, resp.Error)
		b = append(b, ',')
	}
	if len(keys) > 0 {
		slices.Sort(keys)
		b = append(b, `"strategies":{`...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			s := resp.Strategies[k]
			b = appendJSONString(b, k)
			b = append(b, `:{"class":`...)
			b = appendJSONString(b, s.Class)
			b = append(b, `,"threshold":`...)
			b = appendJSONFloat(b, s.Threshold)
			b = append(b, `,"sprint_prob":`...)
			b = appendJSONFloat(b, s.SprintProb)
			b = append(b, `,"ptrip":`...)
			b = appendJSONFloat(b, s.Ptrip)
			b = append(b, `,"agents":`...)
			b = strconv.AppendInt(b, int64(s.Agents), 10)
			b = append(b, '}')
		}
		b = append(b, `},`...)
	}
	b = append(b, `"ptrip":`...)
	b = appendJSONFloat(b, resp.Ptrip)
	if resp.Trace != "" {
		b = append(b, `,"trace":`...)
		b = appendJSONString(b, resp.Trace)
	}
	return append(b, '}', '\n'), nil
}

func isFinite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if !isFinite(x) {
			return false
		}
	}
	return true
}

// appendJSONFloats appends a float slice as encoding/json does: null
// for a nil slice, [] for an empty one.
func appendJSONFloats(b []byte, xs []float64) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, x)
	}
	return append(b, ']')
}

// appendJSONFloat appends a finite float in encoding/json's format: the
// shortest 'f' form, or 'e' for magnitudes below 1e-6 or from 1e21 up,
// with a one-digit negative exponent written without its leading zero.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json does by default:
// '"' and '\\' escaped, control bytes as \b \f \n \r \t or \u00XX, the
// HTML-sensitive '<', '>' and '&' as \u00XX, each invalid UTF-8 byte as
// the escaped U+FFFD, and U+2028 and U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if r == 0x2028 || r == 0x2029 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// decodeJSONRequest decodes one request line; the result and error are
// json.Unmarshal's for the same bytes.
func decodeJSONRequest(line []byte) (request, error) {
	if req, ok := scanJSONRequest(line); ok {
		return req, nil
	}
	var req request
	err := json.Unmarshal(line, &req)
	return req, err
}

// decodeJSONResponse decodes one response line; the result and error
// are json.Unmarshal's for the same bytes.
func decodeJSONResponse(line []byte) (response, error) {
	if resp, ok := scanJSONResponse(line); ok {
		return resp, nil
	}
	var resp response
	err := json.Unmarshal(line, &resp)
	return resp, err
}

// Key bits for duplicate detection in the canonical scanners.
const (
	keyType = 1 << iota
	keyProfile
	keyTrace
	keyParent
	keyAgent
	keyClass
	keyValues
	keyWeights
	keyOK
	keyError
	keyStrategies
	keyPtrip
	keyThreshold
	keySprintProb
	keyAgents
)

// scanJSONRequest decodes a canonical request line; ok is false for any
// other line.
func scanJSONRequest(line []byte) (req request, ok bool) {
	s := jsonScan{b: line}
	var seen uint
	for more := s.begin('{', '}'); more; more = s.next('}') {
		switch string(s.key()) {
		case "type":
			s.once(&seen, keyType)
			req.Type = s.str()
		case "profile":
			s.once(&seen, keyProfile)
			req.Profile = s.profile()
		case "trace":
			s.once(&seen, keyTrace)
			req.Trace = s.str()
		case "parent":
			s.once(&seen, keyParent)
			req.Parent = s.str()
		default:
			s.fail()
		}
	}
	return req, s.end()
}

// scanJSONResponse decodes a canonical response line; ok is false for
// any other line.
func scanJSONResponse(line []byte) (resp response, ok bool) {
	s := jsonScan{b: line}
	var seen uint
	for more := s.begin('{', '}'); more; more = s.next('}') {
		switch string(s.key()) {
		case "ok":
			s.once(&seen, keyOK)
			resp.OK = s.str()
		case "error":
			s.once(&seen, keyError)
			resp.Error = s.str()
		case "strategies":
			s.once(&seen, keyStrategies)
			resp.Strategies = s.strategies()
		case "ptrip":
			s.once(&seen, keyPtrip)
			resp.Ptrip = s.float()
		case "trace":
			s.once(&seen, keyTrace)
			resp.Trace = s.str()
		default:
			s.fail()
		}
	}
	return resp, s.end()
}

// jsonScan is a strict cursor over one canonical line. The first
// unexpected byte marks it bad and moves it to the end of the line, so
// every later read fails too and every loop ends.
type jsonScan struct {
	b   []byte
	i   int
	bad bool
}

func (s *jsonScan) fail() {
	s.bad = true
	s.i = len(s.b)
}

// end reports whether the whole line was one canonical value.
func (s *jsonScan) end() bool {
	s.ws()
	return !s.bad && s.i == len(s.b)
}

func (s *jsonScan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace, reporting whether it was
// there.
func (s *jsonScan) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// begin opens an object or array and reports whether an element
// follows.
func (s *jsonScan) begin(open, close byte) bool {
	if !s.eat(open) {
		s.fail()
		return false
	}
	return !s.eat(close)
}

// next consumes the separator after an element and reports whether
// another follows.
func (s *jsonScan) next(close byte) bool {
	if s.eat(',') {
		return true
	}
	if !s.eat(close) {
		s.fail()
	}
	return false
}

// once marks key k as seen, failing on a duplicate.
func (s *jsonScan) once(seen *uint, k uint) {
	if *seen&k != 0 {
		s.fail()
	}
	*seen |= k
}

// key reads an object key and its colon.
func (s *jsonScan) key() []byte {
	k := s.raw()
	if !s.eat(':') {
		s.fail()
	}
	return k
}

// raw reads a string's bytes; only strings without escapes or control
// bytes, in valid UTF-8, are canonical.
func (s *jsonScan) raw() []byte {
	if !s.eat('"') {
		s.fail()
		return nil
	}
	start := s.i
	ascii := true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			str := s.b[start:s.i]
			s.i++
			if !ascii && !utf8.Valid(str) {
				s.fail()
			}
			return str
		case c == '\\' || c < ' ':
			s.fail()
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	s.fail()
	return nil
}

func (s *jsonScan) str() string { return s.strOr("") }

// strOr reads a string, returning same instead of a copy when the bytes
// are equal.
func (s *jsonScan) strOr(same string) string {
	r := s.raw()
	if s.bad || string(r) == same {
		return same
	}
	return string(r)
}

// number reads one JSON number literal.
func (s *jsonScan) number() []byte {
	s.ws()
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		s.fail()
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			s.fail()
			return nil
		}
		i = skipDigits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			s.fail()
			return nil
		}
		i = skipDigits(b, i)
	}
	s.i = i
	return b[start:i]
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func (s *jsonScan) float() float64 {
	lit := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.fail()
	}
	return f
}

// int reads an integral number; ParseInt, like json.Unmarshal into an
// int, refuses a fraction or an exponent.
func (s *jsonScan) int() int {
	lit := s.number()
	if s.bad {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || int64(int(n)) != n {
		s.fail()
	}
	return int(n)
}

// floats reads an array of numbers; [] decodes as an empty, non-nil
// slice, as json.Unmarshal gives.
func (s *jsonScan) floats() []float64 {
	// A number array holds no ']' before its own, so the commas up to
	// the first ']' size it in one allocation.
	n := 0
	if end := bytes.IndexByte(s.b[s.i:], ']'); end >= 0 {
		n = bytes.Count(s.b[s.i:s.i+end], []byte{','}) + 1
	}
	xs := make([]float64, 0, n)
	for more := s.begin('[', ']'); more; more = s.next(']') {
		xs = append(xs, s.float())
	}
	return xs
}

func (s *jsonScan) profile() *Profile {
	p := &Profile{}
	var seen uint
	for more := s.begin('{', '}'); more; more = s.next('}') {
		switch string(s.key()) {
		case "agent":
			s.once(&seen, keyAgent)
			p.Agent = s.str()
		case "class":
			s.once(&seen, keyClass)
			p.Class = s.str()
		case "values":
			s.once(&seen, keyValues)
			p.Values = s.floats()
		case "weights":
			s.once(&seen, keyWeights)
			p.Weights = s.floats()
		default:
			s.fail()
		}
	}
	return p
}

func (s *jsonScan) strategies() map[string]Strategy {
	m := make(map[string]Strategy)
	for more := s.begin('{', '}'); more; more = s.next('}') {
		k := s.key()
		if _, dup := m[string(k)]; dup || s.bad {
			s.fail()
			break
		}
		name := string(k)
		st := s.strategy(name)
		if s.bad {
			break
		}
		m[name] = st
	}
	return m
}

// strategy reads one strategy; its class, usually equal to its key
// name, shares name's string.
func (s *jsonScan) strategy(name string) Strategy {
	var st Strategy
	var seen uint
	for more := s.begin('{', '}'); more; more = s.next('}') {
		switch string(s.key()) {
		case "class":
			s.once(&seen, keyClass)
			st.Class = s.strOr(name)
		case "threshold":
			s.once(&seen, keyThreshold)
			st.Threshold = s.float()
		case "sprint_prob":
			s.once(&seen, keySprintProb)
			st.SprintProb = s.float()
		case "ptrip":
			s.once(&seen, keyPtrip)
			st.Ptrip = s.float()
		case "agents":
			s.once(&seen, keyAgents)
			st.Agents = s.int()
		default:
			s.fail()
		}
	}
	return st
}

// readJSONLine reads one line, '\n' included, from br. A line that fits
// br's buffer is returned in place and is valid until the next read;
// a longer one is gathered into *scratch. A line longer than
// maxRequestLine returns errOversized, so neither end of a connection
// buffers an unbounded line.
func readJSONLine(br *bufio.Reader, scratch *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if !errors.Is(err, bufio.ErrBufferFull) {
		return line, err
	}
	buf := append((*scratch)[:0], line...)
	for errors.Is(err, bufio.ErrBufferFull) && len(buf) < maxRequestLine {
		line, err = br.ReadSlice('\n')
		buf = append(buf, line...)
	}
	*scratch = buf
	if len(buf) > maxRequestLine || errors.Is(err, bufio.ErrBufferFull) {
		return nil, errOversized
	}
	return buf, err
}
