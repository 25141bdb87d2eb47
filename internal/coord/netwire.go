package coord

import (
	"bufio"
	"encoding/json"
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
	enc     *json.Encoder
}

func newJSONServerCodec(br *bufio.Reader, conn net.Conn) *jsonServerCodec {
	scanner := bufio.NewScanner(br)
	scanner.Buffer(make([]byte, 0, 64*1024), maxRequestLine)
	return &jsonServerCodec{scanner: scanner, enc: json.NewEncoder(conn)}
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
	res.payloadErr = json.Unmarshal(c.scanner.Bytes(), &res.req)
	res.parseDur = time.Since(res.start)
	return res, nil
}

func (c *jsonServerCodec) writeResponse(resp response) error { return c.enc.Encode(resp) }

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

// endpoint is the protocol-independent request loop: it wraps each
// request in coord.* spans and metrics around the dispatch function.
type endpoint struct {
	timeout  time.Duration
	metrics  *telemetry.Registry
	tracer   *telemetry.Tracer
	reqSeq   atomic.Uint64 // trace-ID source for requests without one
	dispatch func(req request, root *telemetry.Span) response
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
	latencyHist := e.metrics.Histogram("coord.request_latency_s", telemetry.LatencyBuckets())
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
				e.metrics.Counter("coord.request_errors").Inc()
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
		root := e.tracer.StartSpanFrom("coord.request", e.requestTrace(req), req.Parent)
		root.Child("coord.parse").WithTiming(res.start, res.parseDur).End()
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
		root.WithTiming(res.start, rootDur).EndWith(telemetry.Fields{
			"type":  req.Type,
			"error": resp.Error,
		})
		latencyHist.Observe(rootDur.Seconds())
		e.metrics.Counter("coord.requests").Inc()
		e.metrics.Counter("coord.requests." + req.Type).Inc()
		if resp.Error != "" {
			e.metrics.Counter("coord.request_errors").Inc()
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
