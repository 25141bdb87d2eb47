package coord

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sprintgame/internal/core"
	"sprintgame/internal/telemetry"
)

// The wire protocol is newline-delimited JSON over TCP, with an
// optional compact binary framing negotiated per connection (see
// binproto.go). Each request draws one response. The coordinator's
// global communication is infrequent (profiles change slowly), so a
// simple request/response protocol suffices; the latency-critical
// sprint decision never crosses the network (§2.3).

// request is the client-to-server message.
type request struct {
	// Type is "submit" or "strategies".
	Type string `json:"type"`
	// Profile accompanies "submit".
	Profile *Profile `json:"profile,omitempty"`
	// Trace optionally carries the caller's trace ID; the server joins
	// its coord.request span to that trace (and echoes the ID in the
	// response) so client-side and server-side spans stitch into one
	// trace. Absent, the server derives a trace ID from its request
	// sequence number.
	Trace string `json:"trace,omitempty"`
	// Parent optionally carries the caller's span ID; the server's
	// coord.request span is parented under it.
	Parent string `json:"parent,omitempty"`
}

// response is the server-to-client message.
type response struct {
	OK    string `json:"ok,omitempty"`
	Error string `json:"error,omitempty"`
	// Strategies answers a "strategies" request.
	Strategies map[string]Strategy `json:"strategies,omitempty"`
	// Ptrip is the equilibrium tripping probability. It must not be
	// omitempty: an equilibrium Ptrip of exactly 0 is legitimate (e.g.
	// thresholds that never overload the breaker) and dropping it from
	// the wire would decode as "absent" on the client.
	Ptrip float64 `json:"ptrip"`
	// Trace echoes the trace ID the server's spans were recorded under
	// (the request's, or the server-derived one).
	Trace string `json:"trace,omitempty"`
}

// DefaultConnTimeout is the server's default per-connection idle
// deadline: a connection that neither delivers a request line nor
// accepts a response for this long is closed, so a stalled or half-open
// client cannot pin a handler goroutine forever.
const DefaultConnTimeout = 2 * time.Minute

// ServeOptions configures a Server.
type ServeOptions struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// ConnTimeout is the per-connection read/write deadline, re-armed
	// before every request read and response write. Zero selects
	// DefaultConnTimeout; negative disables deadlines entirely.
	ConnTimeout time.Duration
	// Metrics, when non-nil, receives server metrics (coord.requests,
	// coord.request_latency_s, coord.connections, ...).
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives one coord.request span tree per
	// request (parse, dispatch, encode and any solve under it).
	Tracer *telemetry.Tracer
	// Cache, when non-nil, is attached to the coordinator
	// (Coordinator.UseCache): concurrent "strategies" requests for the
	// same workload mix coalesce into a single equilibrium solve, and
	// repeated requests between profile changes answer from memory. Its
	// hit/miss counters land in Metrics when the cache was built with
	// the same registry.
	Cache *core.SolveCache
}

// Server exposes a Coordinator over TCP, speaking JSON lines or binary
// frames per connection (see negotiate). It owns the listener, the open
// connections, and the spans and metrics of every request.
type Server struct {
	coord   *Coordinator
	ln      net.Listener
	timeout time.Duration // per-connection deadline; zero disables it
	tracer  *telemetry.Tracer
	reqSeq  atomic.Uint64 // trace-ID source for requests without one

	// Instruments, resolved once in ServeWith (nil without Metrics).
	requests, requestErrors              *telemetry.Counter
	submits, fetches, malformed, unknown *telemetry.Counter // coord.requests.<type>
	latency                              *telemetry.Histogram
	connections, jsonConns, binaryConns  *telemetry.Counter
	connTimeouts, oversized              *telemetry.Counter
	acceptErrors                         *telemetry.Counter

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup // the accept loop and connection handlers
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") with default
// options and returns it. Connections are handled until Close.
func Serve(coord *Coordinator, addr string) (*Server, error) {
	return ServeWith(coord, ServeOptions{Addr: addr})
}

// ServeWith starts a server with explicit options.
func ServeWith(coord *Coordinator, opts ServeOptions) (*Server, error) {
	if coord == nil {
		return nil, errors.New("coord: nil coordinator")
	}
	timeout := opts.ConnTimeout
	switch {
	case timeout == 0:
		timeout = DefaultConnTimeout
	case timeout < 0:
		timeout = 0
	}
	if opts.Cache != nil {
		coord.UseCache(opts.Cache)
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, err
	}
	m := opts.Metrics
	s := &Server{
		coord:         coord,
		ln:            ln,
		timeout:       timeout,
		tracer:        opts.Tracer,
		requests:      m.Counter("coord.requests"),
		requestErrors: m.Counter("coord.request_errors"),
		submits:       m.Counter("coord.requests.submit"),
		fetches:       m.Counter("coord.requests.strategies"),
		malformed:     m.Counter("coord.requests.malformed"),
		unknown:       m.Counter("coord.requests.unknown"),
		latency:       m.Histogram("coord.request_latency_s", telemetry.LatencyBuckets()),
		connections:   m.Counter("coord.connections"),
		jsonConns:     m.Counter("coord.connections.json"),
		binaryConns:   m.Counter("coord.connections.binary"),
		connTimeouts:  m.Counter("coord.conn_timeouts"),
		oversized:     m.Counter("coord.oversized_requests"),
		acceptErrors:  m.Counter("coord.accept_errors"),
		conns:         make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the accept loop, force-closes open connections (clients
// pool idle connections, which would otherwise pin handler goroutines
// until the idle deadline), and waits for the handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// maxRequestLine bounds one JSON line on the wire, request or response.
const maxRequestLine = 1 << 20

// dispatch answers one well-formed request under a coord.dispatch span.
func (s *Server) dispatch(req request, root *telemetry.Span) (resp response) {
	span := root.Child("coord.dispatch")
	if span != nil {
		defer func() { span.EndWith(telemetry.Fields{"type": req.Type, "error": resp.Error}) }()
	}
	switch req.Type {
	case "submit":
		if req.Profile == nil {
			return response{Error: "submit requires a profile"}
		}
		if err := s.coord.Submit(*req.Profile); err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: "profile accepted"}
	case "strategies":
		strategies, eq, err := s.coord.ComputeStrategiesSpanned(span)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: "equilibrium", Strategies: strategies, Ptrip: eq.Ptrip}
	default:
		return response{Error: fmt.Sprintf("unknown request type %q", req.Type)}
	}
}

// Client timeouts. The dial bound is tight — an unreachable
// coordinator should fail fast — while the request bound leaves room
// for a cold equilibrium solve and mirrors the server's
// DefaultConnTimeout.
const (
	DefaultDialTimeout    = 5 * time.Second
	DefaultRequestTimeout = 2 * time.Minute
)

// DefaultPoolSize is the default cap on idle pooled connections per
// client — sized for a handful of concurrent callers sharing one
// client without re-dialing per request.
const DefaultPoolSize = 8

// ClientOptions configures a Client's protocol, connection pool and
// telemetry.
type ClientOptions struct {
	// Proto selects the wire protocol: ProtoJSON (the default) or
	// ProtoBinary. Both carry the same requests and produce identical
	// results; binary trades human readability for smaller frames and
	// cheaper encoding.
	Proto Proto
	// PoolSize caps the client's idle connection pool. Connections are
	// reused across requests and re-dialed transparently when the
	// server has idle-closed them (requests are idempotent). Zero or
	// less selects DefaultPoolSize.
	PoolSize int
	// Metrics, when non-nil, receives client-side request metrics:
	// coord.client.requests (and .<type>), coord.client.errors,
	// coord.client.dials, and the coord.client.request_latency_s
	// histogram. Client-side latency includes dial, queueing, and the
	// network — what callers actually experience, as opposed to the
	// server's service time.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, emits one coord.client.request span per
	// round trip and propagates the trace and span IDs on the wire, so
	// the server's coord.request span (and its children) stitch into
	// the client's trace.
	Tracer *telemetry.Tracer
	// TraceSeed perturbs the deterministic derivation of per-request
	// trace IDs, so multiple clients tracing into one file do not
	// collide. Zero is a valid seed.
	TraceSeed uint64
}

// clientConn is one pooled connection with its reader and reusable
// scratch buffers (both codecs encode into these, so steady-state round
// trips allocate nothing for framing).
type clientConn struct {
	conn net.Conn
	br   *bufio.Reader
	out  []byte // encoded payload or request line scratch
	wire []byte // framed request scratch
	in   []byte // response payload scratch, or a response line too long for br
}

// Client talks to a coordinator Server. Every round trip is bounded by
// a dial timeout and a per-request deadline (DefaultDialTimeout and
// DefaultRequestTimeout), so an unresponsive or half-open server
// surfaces as a timeout error instead of blocking the caller forever
// (mirroring the server-side connection deadlines).
// Connections are pooled and reused across requests. Clients are safe
// for concurrent use; call Close to release pooled connections.
type Client struct {
	addr        string
	proto       Proto
	dialTimeout time.Duration
	reqTimeout  time.Duration

	tracer    *telemetry.Tracer
	traceSeed uint64
	reqSeq    atomic.Uint64

	// pool holds idle connections.
	pool chan *clientConn

	// Hoisted hot-path instruments (nil-safe when metrics is nil).
	requests *telemetry.Counter
	submits  *telemetry.Counter // coord.client.requests.submit
	fetches  *telemetry.Counter // coord.client.requests.strategies
	errors   *telemetry.Counter
	dials    *telemetry.Counter
	latency  *telemetry.Histogram
}

// NewClient returns a client for the given server address with default
// options (JSON protocol, pooled connections, default timeouts).
func NewClient(addr string) *Client {
	return NewClientWith(addr, ClientOptions{})
}

// NewClientWith returns a client with explicit options.
func NewClientWith(addr string, opts ClientOptions) *Client {
	proto := opts.Proto
	if proto == "" {
		proto = ProtoJSON
	}
	size := opts.PoolSize
	if size <= 0 {
		size = DefaultPoolSize
	}
	return &Client{
		addr:        addr,
		proto:       proto,
		dialTimeout: DefaultDialTimeout,
		reqTimeout:  DefaultRequestTimeout,
		tracer:      opts.Tracer,
		traceSeed:   opts.TraceSeed,
		pool:        make(chan *clientConn, size),
		requests:    opts.Metrics.Counter("coord.client.requests"),
		submits:     opts.Metrics.Counter("coord.client.requests.submit"),
		fetches:     opts.Metrics.Counter("coord.client.requests.strategies"),
		errors:      opts.Metrics.Counter("coord.client.errors"),
		dials:       opts.Metrics.Counter("coord.client.dials"),
		latency:     opts.Metrics.Histogram("coord.client.request_latency_s", telemetry.LatencyBuckets()),
	}
}

// Close releases the client's pooled connections. The client remains
// usable (subsequent requests dial fresh connections).
func (c *Client) Close() error {
	for {
		select {
		case cc := <-c.pool:
			_ = cc.conn.Close()
		default:
			return nil
		}
	}
}

// roundTrip sends one request and decodes one response, recording
// client-side latency/error metrics, the request's per-type counter
// byType, and a coord.client.request span.
func (c *Client) roundTrip(req request, byType *telemetry.Counter) (response, error) {
	var span *telemetry.Span
	if c.tracer.Enabled() {
		seq := c.reqSeq.Add(1)
		span = c.tracer.StartSpan("coord.client.request",
			telemetry.TraceIDFromSeed(c.traceSeed+0x9e3779b97f4a7c15*seq))
		req.Trace = span.TraceID()
		req.Parent = span.SpanID()
	}
	start := time.Now()
	resp, err := c.do(req)
	c.requests.Inc()
	byType.Inc()
	c.latency.Observe(time.Since(start).Seconds())
	if err != nil {
		c.errors.Inc()
	}
	if span != nil {
		fields := telemetry.Fields{"type": req.Type}
		if err != nil {
			fields["error"] = err.Error()
		}
		span.EndWith(fields)
	}
	return resp, err
}

// do performs one request over a pooled or fresh connection and
// surfaces application errors (resp.Error) as Go errors.
func (c *Client) do(req request) (response, error) {
	cc, pooled, err := c.getConn()
	if err != nil {
		return response{}, err
	}
	resp, err := c.exchange(cc, req)
	if err != nil && pooled && peerClosed(err) {
		// A pooled connection may have been idle-closed by the server
		// since its last use. Requests are idempotent (submit replaces,
		// strategies reads), so retry once on a fresh connection before
		// reporting failure. A timeout is not retried: the server is
		// there but not answering, and a retry would wait out a second
		// deadline.
		_ = cc.conn.Close()
		if cc, err = c.dialConn(); err != nil {
			return response{}, err
		}
		resp, err = c.exchange(cc, req)
	}
	if err != nil {
		_ = cc.conn.Close()
		return response{}, err
	}
	c.putConn(cc)
	if resp.Error != "" {
		return resp, errors.New(resp.Error)
	}
	return resp, nil
}

// peerClosed reports whether err shows the peer closed the connection:
// EOF, a response cut short, a reset or a broken pipe.
func peerClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// getConn returns an idle pooled connection or dials a fresh one;
// pooled reports whether the connection's liveness is unverified (it
// may have been idle-closed), so an exchange the peer closed should retry.
func (c *Client) getConn() (cc *clientConn, pooled bool, err error) {
	select {
	case cc = <-c.pool:
		return cc, true, nil
	default:
	}
	cc, err = c.dialConn()
	return cc, false, err
}

// putConn returns a healthy connection to the pool, or closes it when
// the pool is full.
func (c *Client) putConn(cc *clientConn) {
	select {
	case c.pool <- cc:
	default:
		_ = cc.conn.Close()
	}
}

// dialConn establishes a connection and, for the binary protocol,
// sends the protocol preamble.
func (c *Client) dialConn() (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return nil, err
	}
	c.dials.Inc()
	cc := &clientConn{conn: conn, br: bufio.NewReader(conn)}
	if c.proto == ProtoBinary {
		_ = conn.SetWriteDeadline(time.Now().Add(c.reqTimeout))
		if _, err := conn.Write(binPreamble[:]); err != nil {
			_ = conn.Close()
			return nil, err
		}
	}
	return cc, nil
}

// exchange writes one request and reads one response on cc.
func (c *Client) exchange(cc *clientConn, req request) (response, error) {
	_ = cc.conn.SetDeadline(time.Now().Add(c.reqTimeout))
	if c.proto == ProtoBinary {
		cc.out = appendRequest(cc.out[:0], req)
		cc.wire = appendFrame(cc.wire[:0], cc.out)
		if _, err := cc.conn.Write(cc.wire); err != nil {
			return response{}, err
		}
		payload, err := readFrame(cc.br, &cc.in)
		if err != nil {
			return response{}, err
		}
		return decodeResponse(payload)
	}
	var err error
	if cc.out, err = appendJSONRequest(cc.out[:0], req); err != nil {
		return response{}, err
	}
	if _, err := cc.conn.Write(cc.out); err != nil {
		return response{}, err
	}
	line, err := readJSONLine(cc.br, &cc.in)
	if err != nil {
		return response{}, err
	}
	return decodeJSONResponse(line)
}

// SubmitProfile sends an agent's profile to the coordinator.
func (c *Client) SubmitProfile(p Profile) error {
	_, err := c.roundTrip(request{Type: "submit", Profile: &p}, c.submits)
	return err
}

// FetchStrategies asks the coordinator to solve the game and return every
// class's assigned strategy along with the equilibrium Ptrip.
func (c *Client) FetchStrategies() (map[string]Strategy, float64, error) {
	resp, err := c.roundTrip(request{Type: "strategies"}, c.fetches)
	if err != nil {
		return nil, 0, err
	}
	return resp.Strategies, resp.Ptrip, nil
}
