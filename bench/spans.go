package main

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
)

// spanRec is one span event kept in memory: the span's coordinates and
// timing plus the few payload fields the layer metrics read.
type spanRec struct {
	trace, id, parent uint64 // parent is 0 for a root span
	start, dur        int64
	iters             int32 // core.solve iterations
	name              uint8 // index into spanSink.names
	label             uint8 // request type or lookup outcome; index into spanSink.names
	flag              bool  // coord.pool memoized, core.solve converged
}

// spanSink is the io.Writer handed to telemetry.NewTracer. It keeps span
// events as compact records and drops flat events, so a traced phase of
// tens of thousands of requests fits in memory until it is aggregated at
// the end. The tracer calls Write once per event line under its own
// lock, and the records are read only after the traced phase has ended,
// so the sink needs no lock of its own.
//
// Write runs inside the spans it records, so its cost lands in their
// self time. It therefore scans a line's top-level keys by hand: decoding
// each line with json.Unmarshal instead raised serve-hit's traced
// coord.request_self_us.p50 from 12.8 to 19.9 µs and
// coord.dispatch_self_us.p50 from 11.5 to 16.5 µs, and cut the traced
// requests by 23% (10-s runs, 2-core Xeon KVM guest).
type spanSink struct {
	recs  []spanRec
	names []string
	index map[string]uint8
	err   error
}

func newSpanSink() *spanSink { return &spanSink{index: map[string]uint8{}} }

// intern maps a name or label to its index.
func (s *spanSink) intern(b []byte) uint8 {
	if i, ok := s.index[string(b)]; ok {
		return i
	}
	if len(s.names) == 255 {
		s.err = errors.New("spans: more than 255 distinct names")
		return 0
	}
	s.names = append(s.names, string(b))
	i := uint8(len(s.names) - 1)
	s.index[string(b)] = i
	return i
}

// Write records one event line.
func (s *spanSink) Write(line []byte) (int, error) {
	var r spanRec
	isSpan := false
	err := scanObject(line, func(key, val []byte) error {
		var err error
		switch string(key) {
		case "event":
			isSpan = string(val) == "span"
		case "name":
			r.name = s.intern(val)
		case "trace":
			r.trace, err = parseID(string(val))
		case "id":
			r.id, err = parseID(string(val))
		case "parent":
			r.parent, err = parseID(string(val))
		case "start_ns":
			r.start, err = strconv.ParseInt(string(val), 10, 64)
		case "dur_ns":
			r.dur, err = strconv.ParseInt(string(val), 10, 64)
		case "type", "outcome":
			r.label = s.intern(val)
		case "iterations":
			var n int64
			n, err = strconv.ParseInt(string(val), 10, 32)
			r.iters = int32(n)
		case "memoized", "converged":
			r.flag = string(val) == "true"
		}
		return err
	})
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("spans: %w in %q", err, line)
	}
	if err == nil && isSpan {
		s.recs = append(s.recs, r)
	}
	return len(line), nil
}

// parseID reads a tracer's 16-hex-digit trace or span ID.
func parseID(id string) (uint64, error) { return strconv.ParseUint(id, 16, 64) }

// take returns the recorded spans and the first parse error.
func (s *spanSink) take() ([]spanRec, []string, error) { return s.recs, s.names, s.err }

// scanObject calls fn with each top-level key of a JSON object and its
// raw value: a string's contents without quotes (escapes untouched), or
// the literal text of any other value.
func scanObject(b []byte, fn func(key, val []byte) error) error {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return errors.New("not an object")
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return nil
	}
	for {
		key, j, err := readString(b, i)
		if err != nil {
			return err
		}
		i = skipSpace(b, j)
		if i >= len(b) || b[i] != ':' {
			return errors.New("missing colon")
		}
		i = skipSpace(b, i+1)
		var val []byte
		if i < len(b) && b[i] == '"' {
			val, i, err = readString(b, i)
		} else {
			start := i
			i, err = skipValue(b, i)
			val = b[start:i]
		}
		if err != nil {
			return err
		}
		if err := fn(key, val); err != nil {
			return err
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return errors.New("unterminated object")
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return nil
		default:
			return fmt.Errorf("unexpected %q", b[i])
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// readString reads the string starting at b[i] == '"' and returns its
// contents and the index after the closing quote.
func readString(b []byte, i int) ([]byte, int, error) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, errors.New("expected string")
	}
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '\\':
			j++
		case '"':
			return b[i+1 : j], j + 1, nil
		}
	}
	return nil, 0, errors.New("unterminated string")
}

// skipValue skips a non-string value (number, literal, or nested
// object/array) and returns the index after it.
func skipValue(b []byte, i int) (int, error) {
	depth := 0
	for i < len(b) {
		switch b[i] {
		case '"':
			_, j, err := readString(b, i)
			if err != nil {
				return 0, err
			}
			i = j
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i, nil
			}
			depth--
		case ',':
			if depth == 0 {
				return i, nil
			}
		}
		i++
	}
	if depth != 0 {
		return 0, errors.New("unterminated value")
	}
	return i, nil
}

// spanTree indexes one trace's spans by parent for self-time
// aggregation.
type spanTree struct {
	recs     []spanRec
	names    []string
	children map[uint64][]int
	roots    []int
}

// groupTraces splits recs into per-trace trees, in trace order.
func groupTraces(recs []spanRec, names []string) []*spanTree {
	idx := make([]int, len(recs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch ta, tb := recs[a].trace, recs[b].trace; {
		case ta < tb:
			return -1
		case ta > tb:
			return 1
		}
		return 0
	})
	var out []*spanTree
	for lo := 0; lo < len(idx); {
		hi := lo
		for hi < len(idx) && recs[idx[hi]].trace == recs[idx[lo]].trace {
			hi++
		}
		t := &spanTree{names: names, children: map[uint64][]int{}}
		ids := map[uint64]bool{}
		for _, k := range idx[lo:hi] {
			t.recs = append(t.recs, recs[k])
			ids[recs[k].id] = true
		}
		for i, r := range t.recs {
			if r.parent != 0 && ids[r.parent] {
				t.children[r.parent] = append(t.children[r.parent], i)
			} else {
				t.roots = append(t.roots, i)
			}
		}
		out = append(out, t)
		lo = hi
	}
	return out
}

func (t *spanTree) name(i int) string { return t.names[t.recs[i].name] }

// child returns the first direct child of span i with the given name,
// or -1.
func (t *spanTree) child(i int, name string) int {
	for _, c := range t.children[t.recs[i].id] {
		if t.name(c) == name {
			return c
		}
	}
	return -1
}

// childrenDur sums the durations of span i's direct children.
func (t *spanTree) childrenDur(i int) int64 {
	var sum int64
	for _, c := range t.children[t.recs[i].id] {
		sum += t.recs[c].dur
	}
	return sum
}

// selfDur is span i's duration minus the part its direct children
// cover. Children of one span never overlap here (each layer calls the
// next synchronously), so their durations add.
func (t *spanTree) selfDur(i int) int64 { return t.recs[i].dur - t.childrenDur(i) }
