package coord

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprintgame/internal/telemetry"
)

// faultKind is one fault a faultConn can inject into a write.
type faultKind int

const (
	faultNone    faultKind = iota
	faultDelay             // a short delay, well inside the client's deadline
	faultStall             // a delay past the client's deadline
	faultDrop              // close the connection without writing
	faultPartial           // write a strict prefix, then close
	faultReset             // abort the connection with a TCP RST
)

// errInjected is the error a faulted write returns.
var errInjected = errors.New("injected fault")

// faultSchedule draws faults from a seeded stream. Writes on any
// connection draw in turn, so the schedule is seeded but its
// interleaving across connections is the scheduler's.
type faultSchedule struct {
	on    atomic.Bool
	rate  float64
	stall time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

func newFaultSchedule(seed int64, rate float64, stall time.Duration) *faultSchedule {
	s := &faultSchedule{rate: rate, stall: stall, rng: rand.New(rand.NewSource(seed))}
	s.on.Store(true)
	return s
}

// draw picks the fault for a write of n bytes, and the prefix length a
// partial write keeps. Delays are drawn only where delays allows.
func (s *faultSchedule) draw(n int, delays bool) (faultKind, int) {
	if !s.on.Load() {
		return faultNone, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng.Float64() >= s.rate {
		return faultNone, 0
	}
	kinds := []faultKind{faultDrop, faultPartial, faultReset}
	if delays {
		kinds = append(kinds, faultDelay, faultStall)
	}
	cut := 0
	if n > 2 {
		// At most n-2 bytes: a cut message never ends in its own
		// terminator, so the server cannot read the prefix as whole.
		cut = s.rng.Intn(n - 1)
	}
	return kinds[s.rng.Intn(len(kinds))], cut
}

// faultConn is one side of a proxied connection whose writes draw
// faults from a schedule. A fault that ends the connection closes its
// peer too, so the other side of the proxy sees the failure.
type faultConn struct {
	net.Conn
	peer   net.Conn
	sched  *faultSchedule
	delays bool
}

func (c *faultConn) Write(p []byte) (int, error) {
	kind, cut := c.sched.draw(len(p), c.delays)
	switch kind {
	case faultDelay:
		time.Sleep(time.Duration(1+len(p)%20) * time.Millisecond)
	case faultStall:
		time.Sleep(c.sched.stall)
	case faultDrop:
		c.abort(false)
		return 0, errInjected
	case faultPartial:
		n, _ := c.Conn.Write(p[:cut])
		c.abort(false)
		return n, errInjected
	case faultReset:
		c.abort(true)
		return 0, errInjected
	}
	return c.Conn.Write(p)
}

func (c *faultConn) abort(reset bool) {
	if tc, ok := c.Conn.(*net.TCPConn); ok && reset {
		_ = tc.SetLinger(0)
	}
	_ = c.Conn.Close()
	_ = c.peer.Close()
}

// faultListener wraps a listener in front of a server: every accepted
// client connection is piped to a fresh connection to target, with
// faults drawn on both directions. Request bytes are never delayed, so
// a request reaches the server whole and at once, or never does; every
// client-visible failure therefore leaves the server in a state the
// client can reason about (a request was applied in full, or not at
// all, before the client saw the error).
type faultListener struct {
	net.Listener
	target string
	sched  *faultSchedule

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newFaultListener(t *testing.T, target string, sched *faultSchedule) *faultListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	l := &faultListener{Listener: ln, target: target, sched: sched}
	l.wg.Add(1)
	go l.serve()
	return l
}

func (l *faultListener) serve() {
	defer l.wg.Done()
	for {
		client, err := l.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", l.target)
		if err != nil {
			_ = client.Close()
			continue
		}
		l.mu.Lock()
		l.conns = append(l.conns, client, server)
		l.mu.Unlock()
		toServer := &faultConn{Conn: server, peer: client, sched: l.sched}
		toClient := &faultConn{Conn: client, peer: server, sched: l.sched, delays: true}
		l.wg.Add(2)
		go l.pipe(toServer, client)
		go l.pipe(toClient, server)
	}
}

// pipe copies src into dst until either side fails, then closes both.
func (l *faultListener) pipe(dst *faultConn, src net.Conn) {
	defer l.wg.Done()
	_, _ = io.Copy(dst, src)
	_ = dst.Conn.Close()
	_ = src.Close()
}

// Close stops accepting, closes every proxied connection and waits for
// the pipes.
func (l *faultListener) Close() error {
	err := l.Listener.Close()
	l.mu.Lock()
	for _, c := range l.conns {
		_ = c.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

// TestServerUnderInjectedFaults drives a server through a fault
// injecting proxy, for both codecs, over seeded fault schedules:
//   - every client call returns within its deadline, with an error or
//     with the answer a fresh coordinator computes for the profiles
//     acknowledged so far;
//   - a submit retried until acknowledged is never lost: once faults
//     stop, the served equilibrium equals, bit for bit, a fresh
//     in-process coordinator's for the final profiles;
//   - Server.Close returns with no handler left running.
func TestServerUnderInjectedFaults(t *testing.T) {
	const (
		dialTimeout = 100 * time.Millisecond
		reqTimeout  = 100 * time.Millisecond
		// A call is a pooled attempt plus one retry on a fresh dial.
		callBound = 2*(dialTimeout+reqTimeout) + time.Second
	)
	for _, proto := range []Proto{ProtoJSON, ProtoBinary} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", proto, seed), func(t *testing.T) {
				c, err := NewCoordinator(gameConfig())
				if err != nil {
					t.Fatal(err)
				}
				srv, err := ServeWith(c, ServeOptions{Addr: "127.0.0.1:0", Metrics: telemetry.NewRegistry()})
				if err != nil {
					t.Skipf("cannot listen on loopback: %v", err)
				}
				t.Cleanup(func() { _ = srv.Close() })
				sched := newFaultSchedule(seed, 0.25, reqTimeout+100*time.Millisecond)
				proxy := newFaultListener(t, srv.Addr(), sched)
				t.Cleanup(func() { _ = proxy.Close() })
				client := NewClientWith(proxy.Addr().String(), ClientOptions{Proto: proto})
				client.dialTimeout, client.reqTimeout = dialTimeout, reqTimeout
				t.Cleanup(func() { _ = client.Close() })

				timed := func(what string, call func() error) error {
					start := time.Now()
					err := call()
					if d := time.Since(start); d > callBound {
						t.Errorf("%s took %v, past the %v bound", what, d, callBound)
					}
					return err
				}
				acked := map[string]Profile{}
				rng := rand.New(rand.NewSource(seed))
				faults := 0
				for op := 0; op < 60; op++ {
					if len(acked) > 0 && rng.Intn(3) == 0 {
						var got map[string]Strategy
						var ptrip float64
						err := timed("FetchStrategies", func() (err error) {
							got, ptrip, err = client.FetchStrategies()
							return err
						})
						if err != nil {
							faults++
							continue
						}
						want, wantPtrip := freshAnswer(t, acked)
						if !reflect.DeepEqual(got, want) || math.Float64bits(ptrip) != math.Float64bits(wantPtrip) {
							t.Fatalf("op %d: served %+v (ptrip %v), fresh coordinator %+v (ptrip %v)",
								op, got, ptrip, want, wantPtrip)
						}
						continue
					}
					agent := fmt.Sprintf("a%d", rng.Intn(6))
					class := []string{"decision", "pagerank"}[rng.Intn(2)]
					p := profileFor(t, agent, class, uint64(seed*1000)+uint64(op), 200)
					for attempt := 0; ; attempt++ {
						if attempt == 50 {
							t.Fatalf("op %d: submit of %s never acknowledged", op, agent)
						}
						err := timed("SubmitProfile", func() error { return client.SubmitProfile(p) })
						if err == nil {
							break
						}
						faults++
					}
					acked[agent] = p
				}
				if faults == 0 {
					t.Errorf("schedule %d injected no client-visible fault", seed)
				}
				t.Logf("%d client calls failed under faults", faults)

				sched.on.Store(false)
				got, ptrip, err := client.FetchStrategies()
				if err != nil {
					t.Fatalf("fetch after faults stopped: %v", err)
				}
				want, wantPtrip := freshAnswer(t, acked)
				if !reflect.DeepEqual(got, want) || math.Float64bits(ptrip) != math.Float64bits(wantPtrip) {
					t.Fatalf("after faults: served %+v (ptrip %v), fresh coordinator %+v (ptrip %v)",
						got, ptrip, want, wantPtrip)
				}

				// Close the server while the client's pooled connection is
				// still open through the proxy, so Close must end a live
				// handler, not just reap finished ones. The stacks are read
				// as soon as Close returns, on the same goroutine.
				left := make(chan string, 1)
				go func() {
					_ = srv.Close()
					left <- serverFrames()
				}()
				select {
				case frames := <-left:
					if frames != "" {
						t.Fatalf("server goroutines left after Close:\n%s", frames)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Server.Close did not return")
				}
			})
		}
	}
}

// freshAnswer is what a fresh in-process coordinator fed profiles
// computes.
func freshAnswer(t *testing.T, profiles map[string]Profile) (map[string]Strategy, float64) {
	t.Helper()
	c, err := NewCoordinator(gameConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles {
		if err := c.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	strategies, eq, err := c.ComputeStrategies()
	if err != nil {
		t.Fatal(err)
	}
	return strategies, eq.Ptrip
}

// serverFrames returns the stacks of goroutines still running a server
// connection handler or accept loop.
func serverFrames() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var left []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "coord.") && (strings.Contains(g, ").serveConn(") || strings.Contains(g, ").acceptLoop(")) {
			left = append(left, g)
		}
	}
	return strings.Join(left, "\n\n")
}
