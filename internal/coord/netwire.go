package coord

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"sprintgame/internal/telemetry"
)

// This file holds the Server's transport machinery: per-connection
// protocol negotiation (JSON lines vs binary frames), the codec
// implementations, the request loop that wraps every request in spans
// and metrics, and the accept loop.

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

// errOversized classifies a message past its size limit (a JSON line
// past maxRequestLine, or a binary frame past maxFramePayload); the
// stream cannot be resynchronized past it.
var errOversized = errors.New("coord: message exceeds size limit")

// jsonServerCodec speaks the newline-delimited JSON protocol.
type jsonServerCodec struct {
	br   *bufio.Reader
	conn net.Conn
	in   []byte // a request line too long for br
	out  []byte // response line scratch
}

func (c *jsonServerCodec) proto() Proto { return ProtoJSON }

// readRequest reads one line, bounded by maxRequestLine, and strips its
// "\n" or "\r\n". A final line without '\n' is still served before EOF
// ends the connection.
func (c *jsonServerCodec) readRequest() (readResult, error) {
	line, err := readJSONLine(c.br, &c.in)
	if err != nil && (err != io.EOF || len(line) == 0) {
		return readResult{}, err
	}
	line = bytes.TrimSuffix(line, []byte{'\n'})
	line = bytes.TrimSuffix(line, []byte{'\r'})
	var res readResult
	res.start = time.Now()
	res.req, res.payloadErr = decodeJSONRequest(line)
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
		return &jsonServerCodec{br: br, conn: conn}, nil
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

// requestTrace resolves the trace ID for one request: the client's, or
// one derived from the server's request sequence so every request is
// traceable even from uninstrumented clients.
func (s *Server) requestTrace(req request) string {
	if req.Trace != "" {
		return req.Trace
	}
	return telemetry.TraceIDFromSeed(s.reqSeq.Add(1))
}

// typeCounter picks the per-type request counter. Every type the
// protocol does not define shares coord.requests.unknown, so a client
// cannot mint metric names.
func (s *Server) typeCounter(typ string) *telemetry.Counter {
	switch typ {
	case "submit":
		return s.submits
	case "strategies":
		return s.fetches
	case "malformed":
		return s.malformed
	}
	return s.unknown
}

// serveConn negotiates the protocol and runs the request loop, wrapping
// each request in coord.* spans and metrics, until the connection dies,
// times out, or sends an unrecoverable request.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	s.connections.Inc()
	if s.timeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.timeout))
	}
	br := bufio.NewReaderSize(conn, 64*1024)
	codec, err := negotiate(br, conn)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.connTimeouts.Inc()
		}
		return
	}
	if codec.proto() == ProtoBinary {
		s.binaryConns.Inc()
	} else {
		s.jsonConns.Inc()
	}
	for {
		if s.timeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.timeout))
		}
		res, rerr := codec.readRequest()
		if rerr != nil {
			var ne net.Error
			switch {
			case errors.As(rerr, &ne) && ne.Timeout():
				s.connTimeouts.Inc()
			case errors.Is(rerr, errOversized):
				// The stream cannot resynchronize past an oversized
				// request, so tell the client why before dropping the
				// connection instead of dying silently.
				s.oversized.Inc()
				s.requestErrors.Inc()
				if s.timeout > 0 {
					_ = conn.SetWriteDeadline(time.Now().Add(s.timeout))
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
		if s.tracer.Enabled() {
			root = s.tracer.StartSpanFrom("coord.request", s.requestTrace(req), req.Parent)
			root.Child("coord.parse").WithTiming(res.start, res.parseDur).End()
		}
		if res.payloadErr != nil {
			req.Type = "malformed"
			resp = response{Error: "malformed request: " + res.payloadErr.Error()}
		} else {
			resp = s.dispatch(req, root)
		}
		resp.Trace = root.TraceID()
		if s.timeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.timeout))
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
		s.latency.Observe(rootDur.Seconds())
		s.requests.Inc()
		s.typeCounter(req.Type).Inc()
		if resp.Error != "" {
			s.requestErrors.Inc()
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

// track registers an accepted connection for shutdown; it reports false
// when the server is already closed (the connection must be dropped).
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			done := s.closed
			s.mu.Unlock()
			if done || errors.Is(err, net.ErrClosed) {
				return
			}
			s.acceptErrors.Inc()
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		if !s.track(conn) {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}
