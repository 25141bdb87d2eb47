// Command coordbench load-tests the coordinator's serving path and
// reports throughput plus tail-latency percentiles, exercising the full
// request pipeline: wire parse, profile pooling, solve-cache lookup,
// equilibrium solve, and response encoding.
//
// Two load models are supported. Closed-loop keeps -concurrency workers
// each issuing the next request as soon as the last returns, measuring
// the server at saturation. Open-loop fires requests at a fixed -rate
// regardless of completions, which is how tail latency should be
// measured when the arrival process is independent of the server
// (avoiding closed-loop coordinated omission).
//
// With -churn > 0, each request resubmits a perturbed profile with that
// probability, invalidating the pooled densities and forcing fresh
// equilibrium solves — the knob that moves the benchmark between the
// cache-hit fast path and the solver-bound slow path.
//
// -proto selects the wire protocol (JSON lines or binary frames) the
// benchmark client speaks; -curve runs the in-process server under both
// protocols and records each point.
//
// Usage:
//
//	coordbench -mode closed -concurrency 8 -duration 5s
//	coordbench -mode open -rate 200 -duration 10s -churn 0.05
//	coordbench -proto binary -requests 2000 -out BENCH_coord.json
//	coordbench -curve -requests 2000 -out BENCH_coord.json
//	coordbench -trace spans.jsonl -duration 2s   # then: traceview spans.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sprintgame/internal/coord"
	"sprintgame/internal/core"
	"sprintgame/internal/persist"
	"sprintgame/internal/stats"
	"sprintgame/internal/telemetry"
)

// params carries the load-model knobs shared by every benchmark point.
type params struct {
	mode         string
	concurrency  int
	rate         float64
	duration     time.Duration
	requests     int
	classes      int
	agents       int
	churn        float64
	cacheSize    int
	cacheDir     string
	neighborWarm bool
	seed         uint64
}

func main() {
	var (
		addr         = flag.String("addr", "", "coordinator address; empty starts an in-process server")
		mode         = flag.String("mode", "closed", "load model: closed (fixed concurrency) | open (fixed rate)")
		concurrency  = flag.Int("concurrency", 8, "closed-loop worker count")
		rate         = flag.Float64("rate", 200, "open-loop arrival rate, requests/sec")
		duration     = flag.Duration("duration", 5*time.Second, "benchmark duration (ignored when -requests > 0)")
		requests     = flag.Int("requests", 0, "stop after this many requests instead of -duration")
		classes      = flag.Int("classes", 3, "workload classes registered before the run")
		agents       = flag.Int("agents", 12, "agents (profiles) registered before the run")
		churn        = flag.Float64("churn", 0, "per-request probability of resubmitting a perturbed profile (forces re-solves)")
		cacheSize    = flag.Int("cache-size", 0, "server solve-cache capacity (0 = default; in-process server only)")
		cacheDir     = flag.String("cache-dir", "", "directory for the disk solve-cache tier: the in-process server warm-starts from and spills equilibria to <dir>/equilibria.log")
		neighborWarm = flag.Bool("neighbor-warm", false, "seed cache-miss solves from the nearest cached same-family instance (in-process server only)")
		protoFlag    = flag.String("proto", "json", "wire protocol: json | binary")
		curve        = flag.Bool("curve", false, "run the in-process server under each wire protocol (json, binary) and record every point")
		seed         = flag.Uint64("seed", 1, "seed for profiles and churn decisions")
		out          = flag.String("out", "", "write the JSON report to this file ('-' for stdout)")
		traceOut     = flag.String("trace", "", "write span JSONL (client and server stitched) to this file")
	)
	flag.Parse()
	if *mode != "closed" && *mode != "open" {
		fatal(fmt.Errorf("unknown -mode %q (want closed or open)", *mode))
	}
	if *concurrency <= 0 || *rate <= 0 {
		fatal(fmt.Errorf("-concurrency and -rate must be positive"))
	}
	if *churn < 0 || *churn > 1 {
		fatal(fmt.Errorf("-churn %v outside [0, 1]", *churn))
	}
	proto := coord.Proto(*protoFlag)
	if !proto.Valid() {
		fatal(fmt.Errorf("unknown -proto %q (want json or binary)", *protoFlag))
	}
	if *curve && *addr != "" {
		fatal(fmt.Errorf("-curve needs the in-process server (drop -addr)"))
	}
	if *curve && *traceOut != "" {
		fatal(fmt.Errorf("-curve and -trace are mutually exclusive (trace a single run)"))
	}

	p := params{
		mode: *mode, concurrency: *concurrency, rate: *rate,
		duration: *duration, requests: *requests, classes: *classes,
		agents: *agents, churn: *churn, cacheSize: *cacheSize,
		cacheDir: *cacheDir, neighborWarm: *neighborWarm, seed: *seed,
	}
	if *cacheDir != "" && *addr != "" {
		fatal(fmt.Errorf("-cache-dir needs the in-process server (drop -addr)"))
	}

	var report *Report
	if *curve {
		report = runCurve(p)
	} else {
		var tracer *telemetry.Tracer
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			bw := bufio.NewWriter(f)
			tracer = telemetry.NewTracer(bw).WithClock(time.Now)
			defer func() {
				if err := tracer.Err(); err != nil {
					fatal(fmt.Errorf("trace %s: %w", *traceOut, err))
				}
				if err := bw.Flush(); err != nil {
					fatal(err)
				}
				if err := f.Close(); err != nil {
					fatal(err)
				}
			}()
		}
		var err error
		report, err = runPoint(p, proto, *addr, tracer)
		if err != nil {
			fatal(err)
		}
	}

	if *out != "" {
		payload, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		payload = append(payload, '\n')
		if *out == "-" {
			os.Stdout.Write(payload)
		} else if err := os.WriteFile(*out, payload, 0o644); err != nil {
			fatal(err)
		}
	}
	if report.Errors > 0 {
		fatal(fmt.Errorf("%d of %d requests failed", report.Errors, report.Requests))
	}
}

// curveProtos are the points recorded by -curve, one in-process server
// per wire protocol.
var curveProtos = []coord.Proto{coord.ProtoJSON, coord.ProtoBinary}

// runCurve runs every curve point; the returned report's headline
// numbers are the last point's (binary) with every point in Curve.
func runCurve(p params) *Report {
	var report *Report
	var curve []CurvePoint
	for _, proto := range curveProtos {
		rep, err := runPoint(p, proto, "", nil)
		if err != nil {
			fatal(fmt.Errorf("curve point proto=%s: %w", proto, err))
		}
		curve = append(curve, CurvePoint{
			Proto:    rep.Proto,
			Requests: rep.Requests, Errors: rep.Errors,
			RequestsPerSec: rep.RequestsPerSec,
			Latency:        rep.Latency, Cache: rep.Cache,
		})
		report = rep
	}
	report.Curve = curve
	return report
}

// runPoint benchmarks one protocol: addr != "" targets an external
// coordinator; otherwise it starts an in-process server.
func runPoint(p params, proto coord.Proto, addr string, tracer *telemetry.Tracer) (*Report, error) {
	metrics := telemetry.NewRegistry()
	target := addr
	var cache *core.SolveCache
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()
	if target == "" {
		cache = core.NewSolveCache(p.cacheSize, metrics)
		cache.SetNeighborWarm(p.neighborWarm)
		if p.cacheDir != "" {
			if err := os.MkdirAll(p.cacheDir, 0o755); err != nil {
				return nil, err
			}
			store, loaded, err := persist.OpenEquilibriumStore(filepath.Join(p.cacheDir, "equilibria.log"))
			if err != nil {
				return nil, err
			}
			closers = append(closers, func() { _ = store.Close() })
			cache.Warm(loaded)
			cache.SetStore(store)
			fmt.Printf("warm start: %d equilibria loaded from %s (%d records skipped)\n",
				len(loaded), store.Path(), store.Skipped())
		}
		coordinator, err := coord.NewCoordinator(core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		srv, err := coord.ServeWith(coordinator, coord.ServeOptions{
			Addr:    "127.0.0.1:0",
			Metrics: metrics,
			Tracer:  tracer,
			Cache:   cache,
		})
		if err != nil {
			return nil, err
		}
		closers = append(closers, func() { _ = srv.Close() })
		target = srv.Addr()
	}

	client := coord.NewClientWith(target, coord.ClientOptions{
		Proto:     proto,
		Metrics:   metrics,
		Tracer:    tracer,
		TraceSeed: p.seed,
	})
	defer client.Close()

	// Register the working set: every class gets agents/classes profiles.
	rng := stats.NewRNG(p.seed)
	for a := 0; a < p.agents; a++ {
		cls := a % p.classes
		if err := client.SubmitProfile(makeProfile(a, cls, rng)); err != nil {
			return nil, fmt.Errorf("submit profile %d: %w", a, err)
		}
	}
	// Warm the cache so the run starts from a solved equilibrium.
	if _, _, err := client.FetchStrategies(); err != nil {
		return nil, fmt.Errorf("warmup solve: %w", err)
	}

	var res *runResult
	switch p.mode {
	case "closed":
		res = runClosed(client, p.concurrency, p.duration, p.requests, p.churn, p.classes, p.agents, p.seed)
	case "open":
		res = runOpen(client, p.rate, p.duration, p.requests, p.churn, p.classes, p.agents, p.seed)
	}

	report := buildReport(p.mode, proto, res, cache)
	fmt.Printf("coordbench: %s loop, proto=%s, %d requests (%d errors) in %.2fs\n",
		p.mode, proto, report.Requests, report.Errors, report.DurationS)
	fmt.Printf("  throughput  %.1f req/s\n", report.RequestsPerSec)
	fmt.Printf("  latency     p50 %.3fms  p90 %.3fms  p99 %.3fms  p99.9 %.3fms  max %.3fms\n",
		report.Latency.P50Ms, report.Latency.P90Ms, report.Latency.P99Ms,
		report.Latency.P999Ms, report.Latency.MaxMs)
	if cache != nil {
		st := cache.Stats()
		fmt.Printf("  solve cache %.1f%% hit (%d hits, %d coalesced, %d misses)\n",
			100*st.HitRate(), st.Hits, st.Coalesced, st.Misses)
		if p.cacheDir != "" {
			// The headline for restart smoke tests: after a warm start the
			// working set should serve without a single fresh solve.
			fmt.Printf("  warm hit rate %.1f%% (%d spilled, %d spill errors)\n",
				100*st.HitRate(), st.Spills, st.SpillErrors)
		}
	}
	return report, nil
}

// makeProfile synthesizes a deterministic utility profile for one agent:
// a coarse histogram whose sprint payoff grows with the class index, so
// classes are genuinely distinct games.
func makeProfile(agent, class int, rng *stats.RNG) coord.Profile {
	const bins = 16
	values := make([]float64, bins)
	weights := make([]float64, bins)
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

// runResult aggregates the load phase.
type runResult struct {
	latencies []time.Duration // one sample per completed request
	errors    int
	elapsed   time.Duration
}

// worker state shared by both load models.
type collector struct {
	mu        sync.Mutex
	latencies []time.Duration
	errors    int
}

// oneRequest issues one benchmark request: usually a strategies fetch,
// with probability churn a profile resubmission that perturbs the pooled
// density (each resubmission changes the profile, forcing a re-solve on
// the next strategies request).
func oneRequest(client *coord.Client, rng *stats.RNG, churn float64, classes, agents int, col *collector) {
	start := time.Now()
	var err error
	if churn > 0 && rng.Bool(churn) {
		a := rng.Intn(agents)
		err = client.SubmitProfile(makeProfile(a, a%classes, rng))
	} else {
		_, _, err = client.FetchStrategies()
	}
	lat := time.Since(start)
	col.mu.Lock()
	col.latencies = append(col.latencies, lat)
	if err != nil {
		col.errors++
	}
	col.mu.Unlock()
}

// runClosed drives the server with a fixed number of always-busy
// workers.
func runClosed(client *coord.Client, workers int, d time.Duration, maxReq int, churn float64, classes, agents int, seed uint64) *runResult {
	var col collector
	var issued int64
	var mu sync.Mutex
	take := func() bool {
		if maxReq <= 0 {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		if issued >= int64(maxReq) {
			return false
		}
		issued++
		return true
	}
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRNG(seed + uint64(w)*0x9e3779b97f4a7c15)
			for take() {
				if maxReq <= 0 && time.Now().After(deadline) {
					return
				}
				oneRequest(client, rng, churn, classes, agents, &col)
			}
		}(w)
	}
	wg.Wait()
	return &runResult{latencies: col.latencies, errors: col.errors, elapsed: time.Since(start)}
}

// runOpen fires requests on a fixed-rate schedule, independent of
// completions: a request that queues behind a slow solve still counts
// its queueing delay, so the percentiles reflect what an outside
// arrival process would observe.
func runOpen(client *coord.Client, rate float64, d time.Duration, maxReq int, churn float64, classes, agents int, seed uint64) *runResult {
	var col collector
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	total := maxReq
	if total <= 0 {
		total = int(d.Seconds() * rate)
	}
	rngs := make([]*stats.RNG, total)
	for i := range rngs {
		rngs[i] = stats.NewRNG(seed + uint64(i)*0x9e3779b97f4a7c15)
	}
	start := time.Now()
	var wg sync.WaitGroup
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for i := 0; i < total; i++ {
		<-ticker.C
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			oneRequest(client, rngs[i], churn, classes, agents, &col)
		}(i)
	}
	wg.Wait()
	return &runResult{latencies: col.latencies, errors: col.errors, elapsed: time.Since(start)}
}

// LatencyReport holds exact (sample-sorted, not histogram-bucketed)
// percentiles in milliseconds.
type LatencyReport struct {
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p99_9_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// CurvePoint is one protocol's result in the -curve sweep.
type CurvePoint struct {
	Proto          string        `json:"proto"`
	Requests       int           `json:"requests"`
	Errors         int           `json:"errors"`
	RequestsPerSec float64       `json:"requests_per_sec"`
	Latency        LatencyReport `json:"latency"`
	Cache          *CacheReport  `json:"solve_cache,omitempty"`
}

// Report is the benchmark's JSON output (BENCH_coord.json).
type Report struct {
	Mode string `json:"mode"`
	// Proto is the wire protocol the benchmark client spoke.
	Proto          string        `json:"proto"`
	Requests       int           `json:"requests"`
	Errors         int           `json:"errors"`
	DurationS      float64       `json:"duration_s"`
	RequestsPerSec float64       `json:"requests_per_sec"`
	Latency        LatencyReport `json:"latency"`
	Cache          *CacheReport  `json:"solve_cache,omitempty"`
	// Curve holds the per-protocol sweep when run with -curve.
	Curve []CurvePoint `json:"curve,omitempty"`
}

// CacheReport summarizes the in-process server's solve cache.
type CacheReport struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Coalesced int64   `json:"coalesced"`
	HitRate   float64 `json:"hit_rate"`
}

func buildReport(mode string, proto coord.Proto, res *runResult, cache *core.SolveCache) *Report {
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(q float64) float64 {
		n := len(res.latencies)
		if n == 0 {
			return 0
		}
		idx := int(math.Ceil(q*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		return ms(res.latencies[idx])
	}
	var sum time.Duration
	for _, l := range res.latencies {
		sum += l
	}
	rep := &Report{
		Mode:      mode,
		Proto:     string(proto),
		Requests:  len(res.latencies),
		Errors:    res.errors,
		DurationS: res.elapsed.Seconds(),
		Latency: LatencyReport{
			P50Ms:  pct(0.50),
			P90Ms:  pct(0.90),
			P99Ms:  pct(0.99),
			P999Ms: pct(0.999),
		},
	}
	if n := len(res.latencies); n > 0 {
		rep.RequestsPerSec = float64(n) / res.elapsed.Seconds()
		rep.Latency.MeanMs = ms(sum / time.Duration(n))
		rep.Latency.MaxMs = ms(res.latencies[n-1])
	}
	if cache != nil {
		st := cache.Stats()
		rep.Cache = &CacheReport{
			Hits: st.Hits, Misses: st.Misses, Coalesced: st.Coalesced,
			HitRate: st.HitRate(),
		}
	}
	return rep
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coordbench:", err)
	os.Exit(1)
}
