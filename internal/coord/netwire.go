package coord

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sprintgame/internal/telemetry"
)

// This file holds the Server's transport machinery: per-connection
// protocol negotiation (JSON lines vs binary frames), the codec
// implementations, and the request loop that wraps every request in
// spans and metrics.

// Proto names a wire protocol.
type Proto string

const (
	// ProtoJSON is the newline-delimited JSON protocol.
	ProtoJSON Proto = "json"
	// ProtoBinary is the length-prefixed binary frame protocol.
	ProtoBinary Proto = "binary"
)

// Valid reports whether p names a known protocol.
func (p Proto) Valid() bool { return p == ProtoJSON || p == ProtoBinary }

// readResult is one request as returned by a serverCodec.
type readResult struct {
	req      request
	start    time.Time     // when the payload parse began
	parseDur time.Duration // payload parse duration
	// payloadErr, when non-nil, marks a syntactically complete message
	// whose payload failed to parse. The stream is still in sync: the
	// server responds with an error and keeps serving the connection.
	payloadErr error
}

// serverCodec reads requests and writes responses on one connection.
// readRequest errors end the connection: errOversized (the server sends
// the codec's oversized response first), timeouts, and EOF/transport
// failures.
type serverCodec interface {
	proto() Proto
	readRequest() (readResult, error)
	writeResponse(resp response) error
	// oversizedMsg is the error message sent before closing a
	// connection that exceeded the request size limit.
	oversizedMsg() string
}

// errOversized classifies a request that exceeded the size limit; the
// stream cannot be resynchronized past it.
var errOversized = errors.New("coord: request exceeds size limit")

// jsonServerCodec speaks the newline-delimited JSON protocol.
type jsonServerCodec struct {
	scanner *bufio.Scanner
	conn    net.Conn
	out     []byte // response line scratch
}

func newJSONServerCodec(br *bufio.Reader, conn net.Conn) *jsonServerCodec {
	scanner := bufio.NewScanner(br)
	scanner.Buffer(make([]byte, 0, 64*1024), maxRequestLine)
	return &jsonServerCodec{scanner: scanner, conn: conn}
}

func (c *jsonServerCodec) proto() Proto { return ProtoJSON }

func (c *jsonServerCodec) readRequest() (readResult, error) {
	if !c.scanner.Scan() {
		err := c.scanner.Err()
		switch {
		case err == nil:
			return readResult{}, io.EOF
		case errors.Is(err, bufio.ErrTooLong):
			return readResult{}, errOversized
		}
		return readResult{}, err
	}
	var res readResult
	res.start = time.Now()
	res.req, res.payloadErr = decodeJSONRequest(c.scanner.Bytes())
	res.parseDur = time.Since(res.start)
	return res, nil
}

func (c *jsonServerCodec) writeResponse(resp response) error {
	var err error
	if c.out, err = appendJSONResponse(c.out[:0], resp); err != nil {
		return err
	}
	_, err = c.conn.Write(c.out)
	return err
}

func (c *jsonServerCodec) oversizedMsg() string {
	return fmt.Sprintf("request line exceeds %d bytes", maxRequestLine)
}

// binServerCodec speaks the length-prefixed binary frame protocol.
type binServerCodec struct {
	br   *bufio.Reader
	conn net.Conn
	in   []byte // request payload scratch
	out  []byte // response payload scratch
	wire []byte // framed response scratch
}

func (c *binServerCodec) proto() Proto { return ProtoBinary }

func (c *binServerCodec) readRequest() (readResult, error) {
	payload, err := readFrame(c.br, &c.in)
	if err != nil {
		if errors.Is(err, errFrameTooBig) {
			return readResult{}, errOversized
		}
		return readResult{}, err
	}
	var res readResult
	res.start = time.Now()
	res.req, res.payloadErr = decodeRequest(payload)
	res.parseDur = time.Since(res.start)
	return res, nil
}

func (c *binServerCodec) writeResponse(resp response) error {
	c.out = appendResponse(c.out[:0], resp)
	c.wire = appendFrame(c.wire[:0], c.out)
	_, err := c.conn.Write(c.wire)
	return err
}

func (c *binServerCodec) oversizedMsg() string {
	return fmt.Sprintf("request frame exceeds %d bytes", maxFramePayload)
}

// negotiate sniffs the connection's first byte: the binary preamble
// leads with NUL, which no JSON-lines request can start with. JSON
// clients need no preamble, so pre-existing clients keep working
// unchanged.
func negotiate(br *bufio.Reader, conn net.Conn) (serverCodec, error) {
	first, err := br.Peek(1)
	if err != nil {
		return nil, err
	}
	if first[0] != binPreamble[0] {
		return newJSONServerCodec(br, conn), nil
	}
	var pre [len(binPreamble)]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return nil, err
	}
	if pre != binPreamble {
		return nil, fmt.Errorf("coord: bad binary preamble % x", pre)
	}
	return &binServerCodec{br: br, conn: conn}, nil
}

// lazy caches a registry instrument resolved on its first use, so a
// hot loop neither builds the instrument's name nor takes the registry
// lock each time, and an instrument that is never used never appears
// in the registry.
type lazy[T any] struct {
	p       atomic.Pointer[T]
	resolve func() *T
}

func (l *lazy[T]) get() *T {
	if m := l.p.Load(); m != nil {
		return m
	}
	m := l.resolve()
	l.p.Store(m)
	return m
}

func lazyCounter(reg *telemetry.Registry, name string) *lazy[telemetry.Counter] {
	return &lazy[telemetry.Counter]{resolve: func() *telemetry.Counter { return reg.Counter(name) }}
}

// typeCounters counts requests by type, as prefix+type. The known
// types' counters are cached; any other type is looked up per request.
type typeCounters struct {
	reg    *telemetry.Registry
	prefix string
	known  map[string]*lazy[telemetry.Counter]
}

func newTypeCounters(reg *telemetry.Registry, prefix string, known ...string) typeCounters {
	t := typeCounters{reg: reg, prefix: prefix, known: make(map[string]*lazy[telemetry.Counter], len(known))}
	for _, typ := range known {
		t.known[typ] = lazyCounter(reg, prefix+typ)
	}
	return t
}

func (t typeCounters) inc(typ string) {
	if l := t.known[typ]; l != nil {
		l.get().Inc()
		return
	}
	t.reg.Counter(t.prefix + typ).Inc()
}

// endpoint is the protocol-independent request loop: it wraps each
// request in coord.* spans and metrics around the dispatch function.
type endpoint struct {
	timeout  time.Duration
	metrics  *telemetry.Registry
	tracer   *telemetry.Tracer
	reqSeq   atomic.Uint64 // trace-ID source for requests without one
	dispatch func(req request, root *telemetry.Span) response

	// Per-request instruments, resolved once per endpoint.
	requests      *lazy[telemetry.Counter]
	requestErrors *lazy[telemetry.Counter]
	byType        typeCounters
	latency       *lazy[telemetry.Histogram]
}

func newEndpoint(timeout time.Duration, metrics *telemetry.Registry, tracer *telemetry.Tracer,
	dispatch func(req request, root *telemetry.Span) response) *endpoint {
	return &endpoint{
		timeout:       timeout,
		metrics:       metrics,
		tracer:        tracer,
		dispatch:      dispatch,
		requests:      lazyCounter(metrics, "coord.requests"),
		requestErrors: lazyCounter(metrics, "coord.request_errors"),
		byType:        newTypeCounters(metrics, "coord.requests.", "submit", "strategies", "malformed"),
		latency: &lazy[telemetry.Histogram]{resolve: func() *telemetry.Histogram {
			return metrics.Histogram("coord.request_latency_s", telemetry.LatencyBuckets())
		}},
	}
}

// requestTrace resolves the trace ID for one request: the client's, or
// one derived from the endpoint's request sequence so every request is
// traceable even from uninstrumented clients.
func (e *endpoint) requestTrace(req request) string {
	if req.Trace != "" {
		return req.Trace
	}
	return telemetry.TraceIDFromSeed(e.reqSeq.Add(1))
}

// serveConn negotiates the protocol and runs the request loop until the
// connection dies, times out, or sends an unrecoverable request.
func (e *endpoint) serveConn(conn net.Conn) {
	defer conn.Close()
	e.metrics.Counter("coord.connections").Inc()
	latencyHist := e.latency.get()
	if e.timeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(e.timeout))
	}
	br := bufio.NewReaderSize(conn, 64*1024)
	codec, err := negotiate(br, conn)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			e.metrics.Counter("coord.conn_timeouts").Inc()
		}
		return
	}
	e.metrics.Counter("coord.connections." + string(codec.proto())).Inc()
	for {
		if e.timeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(e.timeout))
		}
		res, rerr := codec.readRequest()
		if rerr != nil {
			var ne net.Error
			switch {
			case errors.As(rerr, &ne) && ne.Timeout():
				e.metrics.Counter("coord.conn_timeouts").Inc()
			case errors.Is(rerr, errOversized):
				// The stream cannot resynchronize past an oversized
				// request, so tell the client why before dropping the
				// connection instead of dying silently.
				e.metrics.Counter("coord.oversized_requests").Inc()
				e.requestErrors.get().Inc()
				if e.timeout > 0 {
					_ = conn.SetWriteDeadline(time.Now().Add(e.timeout))
				}
				_ = codec.writeResponse(response{Error: codec.oversizedMsg()})
			}
			return
		}
		req := res.req
		var resp response
		// The request root span covers parse + dispatch + encode; parse
		// runs before the trace ID is known, so its timing was captured
		// by the codec and is attached as a child span after the fact.
		// Untraced, root stays nil and no trace ID is derived.
		var root *telemetry.Span
		if e.tracer.Enabled() {
			root = e.tracer.StartSpanFrom("coord.request", e.requestTrace(req), req.Parent)
			root.Child("coord.parse").WithTiming(res.start, res.parseDur).End()
		}
		if res.payloadErr != nil {
			req.Type = "malformed"
			resp = response{Error: "malformed request: " + res.payloadErr.Error()}
		} else {
			resp = e.dispatch(req, root)
		}
		resp.Trace = root.TraceID()
		if e.timeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(e.timeout))
		}
		encSpan := root.Child("coord.encode")
		encErr := codec.writeResponse(resp)
		encSpan.End()
		// The root span's window closes here, right after the response
		// hits the wire: the metric bookkeeping below is server overhead,
		// not request service time, and keeping it outside the window
		// lets the parse/dispatch/encode children account for (nearly)
		// all of the root's duration.
		rootDur := time.Since(res.start)
		if root != nil {
			root.WithTiming(res.start, rootDur).EndWith(telemetry.Fields{
				"type":  req.Type,
				"error": resp.Error,
			})
		}
		latencyHist.Observe(rootDur.Seconds())
		e.requests.get().Inc()
		e.byType.inc(req.Type)
		if resp.Error != "" {
			e.requestErrors.get().Inc()
		}
		if encErr != nil {
			return
		}
	}
}

// Accept-error backoff bounds: persistent Accept failures (e.g. EMFILE
// when the process is out of file descriptors) must not hot-spin the
// accept loop; the delay doubles from min to max and resets on the
// next successful accept.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// acceptor owns a listener and the accept loop feeding connections to
// an endpoint, plus the close bookkeeping.
type acceptor struct {
	ln net.Listener
	ep *endpoint

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

func newAcceptor(addr string, ep *endpoint) (*acceptor, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a := &acceptor{ln: ln, ep: ep, conns: make(map[net.Conn]struct{})}
	a.wg.Add(1)
	go a.acceptLoop()
	return a, nil
}

func (a *acceptor) addr() string { return a.ln.Addr().String() }

// close stops the accept loop, force-closes open connections (clients
// pool idle connections, which would otherwise pin handler goroutines
// until the idle deadline), and waits for handlers to finish.
func (a *acceptor) close() error {
	a.mu.Lock()
	a.closed = true
	for conn := range a.conns {
		_ = conn.Close()
	}
	a.mu.Unlock()
	err := a.ln.Close()
	a.wg.Wait()
	return err
}

// track registers an accepted connection for shutdown; it reports false
// when the acceptor is already closed (the connection must be dropped).
func (a *acceptor) track(conn net.Conn) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	a.conns[conn] = struct{}{}
	return true
}

func (a *acceptor) untrack(conn net.Conn) {
	a.mu.Lock()
	delete(a.conns, conn)
	a.mu.Unlock()
}

func (a *acceptor) acceptLoop() {
	defer a.wg.Done()
	var backoff time.Duration
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			a.mu.Lock()
			done := a.closed
			a.mu.Unlock()
			if done || errors.Is(err, net.ErrClosed) {
				return
			}
			a.ep.metrics.Counter("coord.accept_errors").Inc()
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		if !a.track(conn) {
			_ = conn.Close()
			return
		}
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			defer a.untrack(conn)
			a.ep.serveConn(conn)
		}()
	}
}
