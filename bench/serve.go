package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"sprintgame/internal/coord"
	"sprintgame/internal/core"
	"sprintgame/internal/stats"
	"sprintgame/internal/telemetry"
)

// The serve workloads drive the coordinator exactly as `equilibrium
// -serve` runs it by default: one direct JSON-lines server with the solve
// cache at its default capacity, and no opt-in tier.
const (
	serveAgents  = 256
	serveClasses = 3
	serveBins    = 16
	// serveClients closed-loop clients share one client with this many
	// pooled connections.
	serveClients = 2
	churnRate    = 0.05
	// serveWarmup is how long the clients run before the timed phase, so
	// that it starts with both connections open and the loop hot.
	serveWarmup = time.Second
)

// serveEnv is one running server with its registered working set.
type serveEnv struct {
	srv      *coord.Server
	client   *coord.Client
	cache    *core.SolveCache
	profiles []coord.Profile // each agent's last accepted profile
	answer   answer          // the warm-up fetch
}

type answer struct {
	strategies map[string]coord.Strategy
	ptrip      float64
}

// makeProfile synthesizes one agent's 16-bin utility profile, the shape
// coordbench registers: sprint payoff grows with the class index, so the
// classes are distinct games, and the weights are drawn from rng.
func makeProfile(agent int, rng *stats.RNG) coord.Profile {
	class := agent % serveClasses
	values := make([]float64, serveBins)
	weights := make([]float64, serveBins)
	base := 1 + 0.5*float64(class)
	for i := range values {
		values[i] = base + 0.4*float64(i)
		weights[i] = 0.2 + rng.Float64()
	}
	return coord.Profile{
		Agent:   fmt.Sprintf("bench-agent-%d", agent),
		Class:   fmt.Sprintf("class-%d", class),
		Values:  values,
		Weights: weights,
	}
}

// startServe starts a server, registers every agent and fetches the
// first equilibrium, which fills the cache and the pooled densities.
func startServe(seed uint64, tracer *telemetry.Tracer) (*serveEnv, error) {
	metrics := telemetry.NewRegistry()
	cfg := core.DefaultConfig()
	cfg.Metrics = metrics
	c, err := coord.NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	cache := core.NewSolveCache(core.DefaultSolveCacheCapacity, metrics)
	srv, err := coord.ServeWith(c, coord.ServeOptions{
		Addr:    "127.0.0.1:0",
		Metrics: metrics,
		Tracer:  tracer,
		Cache:   cache,
	})
	if err != nil {
		return nil, err
	}
	e := &serveEnv{
		srv:   srv,
		cache: cache,
		client: coord.NewClientWith(srv.Addr(), coord.ClientOptions{
			PoolSize:  serveClients,
			Tracer:    tracer,
			TraceSeed: seed,
		}),
		profiles: make([]coord.Profile, serveAgents),
	}
	rng := stats.NewRNG(seed)
	for a := range e.profiles {
		e.profiles[a] = makeProfile(a, rng)
		if err := e.client.SubmitProfile(e.profiles[a]); err != nil {
			e.close()
			return nil, fmt.Errorf("register agent %d: %w", a, err)
		}
	}
	strategies, ptrip, err := e.client.FetchStrategies()
	if err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up fetch: %w", err)
	}
	e.answer = answer{strategies, ptrip}
	return e, nil
}

func (e *serveEnv) close() {
	_ = e.client.Close() // releases idle connections only; cannot fail
	_ = e.srv.Close()    // the listener is ours; a close error changes nothing
}

// validAnswer checks one strategies response: every class present,
// finite thresholds, probabilities in [0, 1], and one shared Ptrip.
func validAnswer(strategies map[string]coord.Strategy, ptrip float64) bool {
	if len(strategies) != serveClasses || !(ptrip >= 0 && ptrip <= 1) {
		return false
	}
	agents := 0
	for _, s := range strategies {
		if math.IsNaN(s.Threshold) || math.IsInf(s.Threshold, 0) ||
			!(s.SprintProb >= 0 && s.SprintProb <= 1) || s.Ptrip != ptrip {
			return false
		}
		agents += s.Agents
	}
	return agents == serveAgents
}

func sameAnswer(a, b answer) bool {
	if a.ptrip != b.ptrip || len(a.strategies) != len(b.strategies) {
		return false
	}
	for name, s := range a.strategies {
		if b.strategies[name] != s {
			return false
		}
	}
	return true
}

// runServe runs serve-hit (churn 0) or serve-churn.
func runServe(p phase, churn float64) (*outcome, error) {
	o := &outcome{}
	var e *serveEnv
	for i := 0; i < p.setupReps(); i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = startServe(p.seed, p.tracer); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start))
	}
	if !validAnswer(e.answer.strategies, e.answer.ptrip) {
		o.fail("warm-up answer invalid: %+v", e.answer)
	}

	// Each client draws its churn from its own stream, which the warm-up
	// and the timed phase share.
	rngs := make([]*stats.RNG, serveClients)
	for w := range rngs {
		rngs[w] = stats.NewRNG(p.seed ^ uint64(w+1)*0x9e3779b97f4a7c15)
	}
	warm := newRecorders(time.Now(), serveWarmup)
	e.drive(rngs, churn, time.Now().Add(serveWarmup), warm)
	for _, r := range warm {
		if r.failed > 0 {
			o.fail("%d of %d warm-up requests failed", r.failed, r.attempted)
		}
	}
	runtime.GC()

	before := e.cache.Stats()
	o.before = readResources()
	t0 := time.Now()
	recs := newRecorders(t0, p.dur)
	e.drive(rngs, churn, t0.Add(p.dur), recs)
	tEnd := time.Now()
	o.after = readResources()
	after := e.cache.Stats()
	for _, r := range recs[1:] {
		recs[0].merge(r)
	}
	o.rec = recs[0]

	// The server's answer for the final profiles must match, bit for bit,
	// a fresh coordinator that never saw a cache or the intermediate
	// profiles.
	strategies, ptrip, err := e.client.FetchStrategies()
	e.close()
	if err != nil {
		o.fail("final fetch: %v", err)
	} else if want, err := freshAnswer(e.profiles); err != nil {
		o.fail("fresh coordinator: %v", err)
	} else if got := (answer{strategies, ptrip}); !sameAnswer(got, want) {
		o.fail("server answer %+v differs from a fresh solve %+v", got, want)
	}

	if p.traced {
		o.layers = layerMetrics{}
		lookups := (after.Hits - before.Hits) + (after.Misses - before.Misses) + (after.Coalesced - before.Coalesced)
		if lookups > 0 {
			o.layers["core.cache_hit_rate"] = float64(after.Hits-before.Hits+after.Coalesced-before.Coalesced) / float64(lookups)
			o.layers["core.cache_coalesced_share"] = float64(after.Coalesced-before.Coalesced) / float64(lookups)
		}
		o.layers["core.cache_misses"] = float64(after.Misses - before.Misses)
		serveLayers(p.sink, t0, tEnd, o)
	}
	return o, nil
}

func newRecorders(t0 time.Time, d time.Duration) []*recorder {
	recs := make([]*recorder, serveClients)
	for w := range recs {
		recs[w] = newRecorder(t0, d)
	}
	return recs
}

// drive runs the closed loop until deadline: client w sends requests,
// drawing its churn from rngs[w], and records them in recs[w].
func (e *serveEnv) drive(rngs []*stats.RNG, churn float64, deadline time.Time, recs []*recorder) {
	var wg sync.WaitGroup
	for w, rec := range recs {
		wg.Add(1)
		go func(w int, rec *recorder, rng *stats.RNG) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				rec.attempted++
				if churn > 0 && rng.Bool(churn) {
					// Each client resubmits only its own agents, so the
					// final profile of every agent is known.
					a := serveClients*rng.Intn(serveAgents/serveClients) + w
					prof := makeProfile(a, rng)
					start := time.Now()
					err := e.client.SubmitProfile(prof)
					end := time.Now()
					if err != nil {
						rec.failed++
						continue
					}
					e.profiles[a] = prof
					rec.done(start, end, 1)
					continue
				}
				start := time.Now()
				strategies, ptrip, err := e.client.FetchStrategies()
				end := time.Now()
				got := answer{strategies, ptrip}
				if err != nil || !validAnswer(strategies, ptrip) || (churn == 0 && !sameAnswer(got, e.answer)) {
					rec.failed++
					continue
				}
				rec.done(start, end, 1)
			}
		}(w, rec, rngs[w])
	}
	wg.Wait()
}

func freshAnswer(profiles []coord.Profile) (answer, error) {
	c, err := coord.NewCoordinator(core.DefaultConfig())
	if err != nil {
		return answer{}, err
	}
	for _, prof := range profiles {
		if err := c.Submit(prof); err != nil {
			return answer{}, err
		}
	}
	strategies, eq, err := c.ComputeStrategies()
	if err != nil {
		return answer{}, err
	}
	return answer{strategies, eq.Ptrip}, nil
}

// serveLayers attributes each timed request's client span to the layers
// it crosses. Transport is the client span minus the server's
// coord.request; the server request splits into parse, dispatch, encode
// and its own bookkeeping; a strategies dispatch splits further into
// pooling, the cache lookup, any Algorithm 1 solve, and the rest of
// dispatch (SolveKey and building the answer). A submit's dispatch is
// the submit layer.
func serveLayers(sink *spanSink, t0, tEnd time.Time, o *outcome) {
	recs, names, err := sink.take()
	if err != nil {
		o.fail("%v", err)
		return
	}
	s := map[string][]float64{}
	var attributed int64
	layer := func(key string, ns int64) {
		s[key] = append(s[key], float64(ns)/1e3)
		attributed += ns
	}
	var memo, pools, converged, solves int
	var traces int64
	from, to := t0.UnixNano(), tEnd.UnixNano()
	for _, t := range groupTraces(recs, names) {
		client := -1
		for _, r := range t.roots {
			if t.name(r) == "coord.client.request" {
				client = r
			}
		}
		if client < 0 || t.recs[client].start < from || t.recs[client].start >= to {
			continue // set-up or final-check traffic
		}
		traces++
		cr := t.recs[client]
		req := t.child(client, "coord.request")
		d := -1
		if req >= 0 {
			d = t.child(req, "coord.dispatch")
		}
		if d < 0 {
			o.fail("trace %016x has no server request or dispatch span", cr.trace)
			continue
		}
		layer("coord.transport_us", cr.dur-t.recs[req].dur)
		layer("coord.request_self_us", t.selfDur(req))
		for _, name := range []string{"coord.parse", "coord.encode"} {
			if c := t.child(req, name); c >= 0 {
				layer(name+"_us", t.recs[c].dur)
			}
		}
		if names[t.recs[d].label] == "submit" {
			layer("coord.submit_us", t.recs[d].dur)
			continue
		}
		layer("coord.dispatch_self_us", t.selfDur(d))
		if c := t.child(d, "coord.pool"); c >= 0 {
			layer("coord.pool_us", t.recs[c].dur)
			pools++
			if t.recs[c].flag {
				memo++
			}
		}
		if c := t.child(d, "cache.lookup"); c >= 0 {
			layer("core.cache_lookup_us", t.recs[c].dur)
		}
		if c := t.child(d, "core.solve"); c >= 0 {
			r := t.recs[c]
			attributed += r.dur
			s["core.solve_ms"] = append(s["core.solve_ms"], float64(r.dur)/1e6)
			s["core.alg1_iters"] = append(s["core.alg1_iters"], float64(r.iters))
			solves++
			if r.flag {
				converged++
			}
			for _, it := range t.children[r.id] {
				s["core.solver_iter_us"] = append(s["core.solver_iter_us"], float64(t.recs[it].dur)/1e3)
			}
		}
	}
	o.attributed = float64(attributed)
	if traces != o.rec.attempted {
		o.fail("%d complete request traces for %d requests", traces, o.rec.attempted)
	}
	o.opTotal = o.rec.hist.sumNS
	o.layers.p50("coord.transport_us", s)
	o.layers.p50("coord.request_self_us", s)
	o.layers.p50("coord.parse_us", s)
	o.layers.p50("coord.encode_us", s)
	o.layers.p50("coord.dispatch_self_us", s)
	o.layers.p50("coord.pool_us", s)
	o.layers.p99("coord.pool_us", s)
	o.layers.p50("coord.submit_us", s)
	o.layers.p50("core.cache_lookup_us", s)
	o.layers.p99("core.cache_lookup_us", s)
	o.layers.p50("core.solve_ms", s)
	o.layers.p99("core.solve_ms", s)
	o.layers.p50("core.solver_iter_us", s)
	o.layers.mean("core.alg1_iters", s)
	if pools > 0 {
		o.layers["coord.pool_memo_share"] = float64(memo) / float64(pools)
	}
	if solves > 0 {
		o.layers["core.converged_share"] = float64(converged) / float64(solves)
	}
}
