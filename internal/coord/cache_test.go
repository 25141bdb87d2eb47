package coord

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"sprintgame/internal/core"
	"sprintgame/internal/telemetry"
)

// seedProfiles are cachedCoordinator's three agents across two classes.
func seedProfiles(t *testing.T) []Profile {
	return []Profile{
		profileFor(t, "a1", "decision", 11, 400),
		profileFor(t, "a2", "decision", 12, 400),
		profileFor(t, "a3", "pagerank", 13, 400),
	}
}

// cachedCoordinator returns a coordinator with three registered agents
// across two classes and an attached solve cache.
func cachedCoordinator(t *testing.T, metrics *telemetry.Registry) (*Coordinator, *core.SolveCache) {
	t.Helper()
	cfg := gameConfig()
	cfg.Metrics = metrics
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range seedProfiles(t) {
		if err := c.Submit(p); err != nil {
			t.Fatalf("profile %d: %v", i, err)
		}
	}
	cache := core.NewSolveCache(8, metrics)
	c.UseCache(cache)
	return c, cache
}

func TestComputeStrategiesSingleflight(t *testing.T) {
	metrics := telemetry.NewRegistry()
	c, cache := cachedCoordinator(t, metrics)

	const callers = 64
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	strategies := make([]map[string]Strategy, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			strategies[i], _, errs[i] = c.ComputeStrategies()
		}(i)
	}
	start.Done()
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if th, want := strategies[i]["decision"].Threshold, strategies[0]["decision"].Threshold; th != want {
			t.Fatalf("caller %d got threshold %v, want %v", i, th, want)
		}
	}
	// 64 concurrent identical requests must trigger exactly one solve:
	// the first caller pools and solves under the coordinator's lock,
	// and everyone after it reads the memoized equilibrium without
	// reaching the cache at all.
	if runs := metrics.Counter("solver.runs").Value(); runs != 1 {
		t.Errorf("solver.runs = %d, want exactly 1", runs)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits+st.Coalesced != 0 {
		t.Errorf("cache stats = %+v, want 1 miss and no other lookup", st)
	}
}

// tracedFetch runs one ComputeStrategiesSpanned under a fresh dispatch
// span and returns the spans it emitted, by name.
func tracedFetch(t *testing.T, c *Coordinator) map[string][]spanEvent {
	t.Helper()
	var buf bytes.Buffer
	tracer := telemetry.NewTracer(&buf)
	dispatch := tracer.StartSpan("coord.dispatch", telemetry.TraceIDFromSeed(1))
	if _, _, err := c.ComputeStrategiesSpanned(dispatch); err != nil {
		t.Fatal(err)
	}
	dispatch.End()
	byName := map[string][]spanEvent{}
	for _, s := range decodeSpans(t, buf.Bytes()) {
		byName[s.Name] = append(byName[s.Name], s)
	}
	return byName
}

// TestFetchBetweenSubmitsRunsNoSolve: once the first fetch has solved
// the pooled profiles, further fetches with no Submit in between answer
// from the coordinator's memo — no solve, no cache lookup (and so no
// SolveKey), and the same equilibrium pointer every time.
func TestFetchBetweenSubmitsRunsNoSolve(t *testing.T) {
	metrics := telemetry.NewRegistry()
	c, cache := cachedCoordinator(t, metrics)
	_, first, err := c.ComputeStrategies()
	if err != nil {
		t.Fatal(err)
	}
	runs := metrics.Counter("solver.runs").Value()
	before := cache.Stats()

	const k = 20
	for i := 0; i < k; i++ {
		_, eq, err := c.ComputeStrategies()
		if err != nil {
			t.Fatal(err)
		}
		if eq != first {
			t.Fatalf("fetch %d returned a different equilibrium than the first", i)
		}
	}
	spans := tracedFetch(t, c)
	if got := metrics.Counter("solver.runs").Value(); got != runs {
		t.Errorf("solver.runs went %d -> %d across %d fetches with no submit", runs, got, k+1)
	}
	if after := cache.Stats(); after != before {
		t.Errorf("cache stats moved across fetches with no submit: %+v -> %+v", before, after)
	}
	if len(spans["cache.lookup"]) != 0 || len(spans["core.solve"]) != 0 {
		t.Errorf("memoized fetch emitted %d cache.lookup and %d core.solve spans, want none",
			len(spans["cache.lookup"]), len(spans["core.solve"]))
	}
	if pool := spans["coord.pool"]; len(pool) != 1 || !pool[0].Memoized {
		t.Errorf("memoized fetch pool spans = %+v, want one memoized coord.pool", pool)
	}
}

func TestCacheInvalidatedByProfileChange(t *testing.T) {
	metrics := telemetry.NewRegistry()
	c, cache := cachedCoordinator(t, metrics)
	if _, _, err := c.ComputeStrategies(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ComputeStrategies(); err != nil {
		t.Fatal(err)
	}
	// The repeat request is answered by the coordinator's memo, before
	// the cache.
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want one miss and the repeat served by the memo", st)
	}
	// A new profile changes the pooled densities, so the next request
	// must re-pool and re-solve rather than serve the stale equilibrium.
	if err := c.Submit(profileFor(t, "a4", "pagerank", 14, 400)); err != nil {
		t.Fatal(err)
	}
	spans := tracedFetch(t, c)
	if pool := spans["coord.pool"]; len(pool) != 1 || pool[0].Memoized {
		t.Errorf("fetch after a submit: pool spans = %+v, want one fresh coord.pool", pool)
	}
	if len(spans["core.solve"]) != 1 {
		t.Errorf("fetch after a submit emitted %d core.solve spans, want 1", len(spans["core.solve"]))
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Fatalf("stats = %+v, want a fresh solve after a profile change", st)
	}
	if runs := metrics.Counter("solver.runs").Value(); runs != 2 {
		t.Fatalf("solver.runs = %d, want 2", runs)
	}
	// The new version is memoized in turn.
	if _, _, err := c.ComputeStrategies(); err != nil {
		t.Fatal(err)
	}
	if runs := metrics.Counter("solver.runs").Value(); runs != 2 {
		t.Fatalf("solver.runs = %d after a repeat fetch, want 2", runs)
	}
}

// TestConcurrentSubmitAndFetchMatchesFresh races Submits against
// fetches on one coordinator (run it under -race). Once the writers are
// done, the answer must be bit-identical to a fresh coordinator's for
// the final profiles: no fetch may leave a stale equilibrium memoized
// against a newer pooled version.
func TestConcurrentSubmitAndFetchMatchesFresh(t *testing.T) {
	c, _ := cachedCoordinator(t, nil)
	final := make([]Profile, 4)
	var wg sync.WaitGroup
	for w := range final {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				p := profileFor(t, fmt.Sprintf("w%d", w), []string{"decision", "pagerank"}[i%2], uint64(100*w+i), 200)
				if err := c.Submit(p); err != nil {
					t.Error(err)
					return
				}
				final[w] = p
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, _, err := c.ComputeStrategies(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	got, gotEq, err := c.ComputeStrategies()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCoordinator(gameConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(seedProfiles(t), final...) {
		if err := fresh.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	want, wantEq, err := fresh.ComputeStrategies()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || math.Float64bits(gotEq.Ptrip) != math.Float64bits(wantEq.Ptrip) {
		t.Fatalf("after concurrent submits: got %+v (ptrip %v), fresh coordinator %+v (ptrip %v)",
			got, gotEq.Ptrip, want, wantEq.Ptrip)
	}
}

func TestServeWithCacheCoalescesRequests(t *testing.T) {
	metrics := telemetry.NewRegistry()
	c, cache := cachedCoordinator(t, metrics)
	srv, err := ServeWith(c, ServeOptions{Addr: "127.0.0.1:0", Cache: cache, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = NewClient(srv.Addr()).FetchStrategies()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if runs := metrics.Counter("solver.runs").Value(); runs != 1 {
		t.Errorf("solver.runs = %d, want 1 solve for %d concurrent TCP requests", runs, clients)
	}
	if st := cache.Stats(); st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 miss", st)
	}
}

func TestClientRequestTimeout(t *testing.T) {
	// A server that accepts connections but never responds: without a
	// request deadline FetchStrategies would block forever.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				buf := make([]byte, 1024)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
					select {
					case <-done:
						return
					default: // swallow the request, never answer
					}
				}
			}(conn)
		}
	}()

	client := NewClient(ln.Addr().String())
	client.reqTimeout = 100 * time.Millisecond
	start := time.Now()
	_, _, err = client.FetchStrategies()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected a timeout error from an unresponsive server")
	}
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Errorf("err = %v, want a net timeout", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("request took %v, deadline was 100ms", elapsed)
	}
}

func TestClientTimeoutDefaultsAndDisable(t *testing.T) {
	def := NewClient("127.0.0.1:1")
	if def.dialTimeout != DefaultDialTimeout || def.reqTimeout != DefaultRequestTimeout {
		t.Errorf("defaults = (%v, %v), want (%v, %v)",
			def.dialTimeout, def.reqTimeout, DefaultDialTimeout, DefaultRequestTimeout)
	}
}
