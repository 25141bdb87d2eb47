// Command cluster simulates a datacenter of sprinting racks: R
// independent rack games run on a worker pool, with cluster-level
// aggregation (total throughput, trips per rack-epoch, cross-rack
// sprinter spread) and a shared equilibrium solve cache so racks with
// the same workload mix solve the game once.
//
// With -arrivals the cluster switches from batch mode ("run R racks to
// completion") to serving mode: jobs arrive during simulation per the
// given arrival process and a routing policy (-route) assigns each one
// to a rack using live snapshots — queue depth, sprint headroom, trip
// margin, liveness. See internal/route.
//
// Usage:
//
//	cluster -racks 16 -chips 256 -epochs 2000 -policy equilibrium
//	cluster -racks 8 -app decision,pagerank -rotate -trace cluster.jsonl
//	cluster -racks 32 -workers 4 -metrics metrics.json -debug-addr 127.0.0.1:6060
//	cluster -racks 8 -arrivals poisson:rate=400,units=4 -route sprint-aware
//	cluster -arrivals trace:scale=0.05 -trace-replay traces.json -faults 0.2
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"sprintgame/internal/cluster"
	"sprintgame/internal/core"
	"sprintgame/internal/route"
	"sprintgame/internal/sim"
	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

func main() {
	var (
		racks     = flag.Int("racks", 8, "number of racks in the cluster")
		chips     = flag.Int("chips", 256, "chips (agents) per rack")
		epochs    = flag.Int("epochs", 1000, "epochs to simulate per rack")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = NumCPU); results are identical for any value")
		apps      = flag.String("app", "decision", "comma-separated benchmark names for each rack's mix")
		rotate    = flag.Bool("rotate", false, "rotate the app mix per rack for a heterogeneous cluster")
		polName   = flag.String("policy", "equilibrium", "greedy | backoff | equilibrium | never")
		seed      = flag.Uint64("seed", 1, "cluster base seed (per-rack seeds are derived)")
		faultSpec = flag.String("faults", "", "inject rack faults: a kill rate in [0,1] (\"0.2\") or rack@epoch pairs (\"3@100,7@250\")")
		arrivals  = flag.String("arrivals", "", "serving mode: arrival spec (poisson:rate=...,units=..., diurnal:..., trace:...)")
		routeName = flag.String("route", "least-loaded", "serving mode: routing policy (round-robin | random | least-loaded | sprint-aware)")
		replay    = flag.String("trace-replay", "", "serving mode: trace-set file (cmd/tracegen output) for arrival kind \"trace\"")
		traceOut  = flag.String("trace", "", "write a JSONL span trace (cluster.run with its cluster.rack and cluster.epoch children, or route.serve in serving mode) to this file ('-' for stdout)")
		metricsTo = flag.String("metrics", "", "write the final metrics registry as JSON to this file ('-' for stdout)")
		debugAddr = flag.String("debug-addr", "", "serve the debug endpoint (/metrics, /debug/pprof, /debug/vars) on this address while running")
	)
	flag.Parse()

	metrics := telemetry.NewRegistry()
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		f, closeTrace, err := openSink(*traceOut)
		if err != nil {
			fatal(err)
		}
		bw := bufio.NewWriter(f)
		tracer = telemetry.NewTracer(bw)
		var once sync.Once
		var traceErr error
		finishTrace = func() error {
			once.Do(func() { traceErr = errors.Join(tracer.Err(), bw.Flush(), closeTrace()) })
			return traceErr
		}
		defer func() {
			if err := finishTrace(); err != nil {
				fatal(fmt.Errorf("trace %s: %w", *traceOut, err))
			}
		}()
	}
	if *debugAddr != "" {
		dbg, err := telemetry.ServeDebug(*debugAddr, metrics)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("debug endpoint: %s (metrics at /metrics, profiles at /debug/pprof/)\n", dbg.URL())
	}

	// Scale the paper's rack (N=1000, Nmin=250, Nmax=750) to -chips.
	game := core.DefaultConfig().Scaled(*chips)

	names := strings.Split(*apps, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
	}
	specs := make([]cluster.RackSpec, *racks)
	for r := range specs {
		mix := names
		if *rotate && len(names) > 1 {
			k := r % len(names)
			mix = append(append([]string{}, names[k:]...), names[:k]...)
		}
		groups, err := buildGroups(mix, game.N)
		if err != nil {
			fatal(err)
		}
		specs[r] = cluster.RackSpec{Groups: groups}
	}

	cache := core.NewSolveCache(core.DefaultSolveCacheCapacity, metrics)
	factory, err := cluster.FactoryByName(*polName, cache)
	if err != nil {
		fatal(err)
	}

	var faults *cluster.FaultPlan
	if *faultSpec != "" {
		faults, err = cluster.ParseFaultPlan(*faultSpec)
		if err != nil {
			fatal(err)
		}
	}

	ccfg := cluster.Config{
		Racks:    specs,
		Epochs:   *epochs,
		BaseSeed: *seed,
		Game:     game,
		Policy:   factory,
		Metrics:  metrics,
		Tracer:   tracer,
		Faults:   faults,
		Workers:  *workers,
	}

	if *arrivals != "" {
		serve(ccfg, *arrivals, *routeName, *replay, *polName)
		writeMetrics(metrics, *metricsTo)
		if *polName == "equilibrium" {
			printCacheStats(cache)
		}
		return
	}

	res, err := cluster.Run(ccfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("cluster: %d racks x %d chips x %d epochs, policy=%s, workers=%d (NumCPU=%d)\n",
		len(res.Racks)+len(res.Failed), game.N, res.Epochs, *polName, res.Workers, runtime.NumCPU())
	if len(res.Failed) > 0 {
		fmt.Printf("DEGRADED: %d/%d racks failed; aggregates cover the %d survivors only\n",
			len(res.Failed), len(res.Racks)+len(res.Failed), len(res.Racks))
		for _, f := range res.Failed {
			fmt.Printf("  %-8s failed: %v\n", f.Name, f.Err)
		}
	}
	fmt.Printf("task rate: %.3f units/agent-epoch (normal mode = 1.0), total %.0f units\n",
		res.TaskRate, res.TotalUnits)
	fmt.Printf("power emergencies: %d (%.4f per rack-epoch)\n", res.Trips, res.TripsPerRackEpoch)
	fmt.Printf("time in states: sprinting=%.1f%% active=%.1f%% cooling=%.1f%% recovery=%.1f%%\n",
		100*res.Shares.Sprinting, 100*res.Shares.ActiveIdle,
		100*res.Shares.Cooling, 100*res.Shares.Recovery)
	fmt.Printf("sprinters/rack-epoch: mean=%.1f stddev=%.1f min=%.1f max=%.1f\n",
		res.Sprinters.Mean, res.Sprinters.StdDev, res.Sprinters.Min, res.Sprinters.Max)
	for i, r := range res.Racks {
		fmt.Printf("  %-8s seed=%-20d rate=%.3f trips=%d\n", r.Name, r.Seed, r.Sim.TaskRate, r.Sim.Trips)
		if i >= 15 && len(res.Racks) > 17 {
			fmt.Printf("  ... %d more racks\n", len(res.Racks)-i-1)
			break
		}
	}
	if *polName == "equilibrium" {
		printCacheStats(cache)
	}

	writeMetrics(metrics, *metricsTo)
}

// printCacheStats reports the solve cache's counters. Hits and
// coalesced lookups are printed as one count: how a shared solve splits
// between them depends on which rack's build reaches the cache first,
// while their sum, like the solve count, is fixed by the racks' mixes.
func printCacheStats(cache *core.SolveCache) {
	st := cache.Stats()
	fmt.Printf("solve cache: %d solves, %d served from cache (hit rate %.0f%%)\n",
		st.Misses, st.Hits+st.Coalesced, 100*st.HitRate())
}

// serve runs the event-driven serving mode: arrivals fire during
// simulation and the routing policy places each job using live rack
// snapshots (internal/route).
func serve(ccfg cluster.Config, arrivalSpec, routeName, replayPath, sprintName string) {
	var ts *workload.TraceSet
	if replayPath != "" {
		f, err := os.Open(replayPath)
		if err != nil {
			fatal(err)
		}
		ts, err = workload.LoadTraceSet(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	arr, err := route.LoadArrivals(arrivalSpec, ts)
	if err != nil {
		fatal(err)
	}
	router, err := route.ByName(routeName, cluster.MixSeed(ccfg.BaseSeed, -3)^0x5eed)
	if err != nil {
		fatal(err)
	}
	res, err := route.Serve(route.Config{Cluster: ccfg, Arrivals: arr, Router: router})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("cluster (serving): %d racks x %d epochs, sprint=%s, route=%s, arrivals=%s, workers=%d (NumCPU=%d)\n",
		len(res.Racks), res.Epochs, sprintName, res.Policy, res.Arrivals, res.Workers, runtime.NumCPU())
	if len(res.Failed) > 0 {
		fmt.Printf("DEGRADED: %d racks died mid-run; their queues were rerouted to survivors\n", len(res.Failed))
		for _, f := range res.Failed {
			fmt.Printf("  %-8s died: %v\n", f.Name, f.Err)
		}
	}
	fmt.Printf("jobs: %d arrived = %d completed + %d still queued (%d rerouted off dead racks)\n",
		res.Arrived, res.Completed, res.Unfinished, res.Rerouted)
	fmt.Printf("throughput: %.1f units/epoch (%.2f jobs/epoch), %.0f of %.0f offered units served\n",
		res.Throughput, res.JobsPerEpoch, res.UnitsCompleted, res.UnitsArrived)
	fmt.Printf("latency (epochs): p50 %.1f  p90 %.1f  p99 %.1f  p99.9 %.1f  mean %.1f  max %.0f\n",
		res.Latency.P50, res.Latency.P90, res.Latency.P99, res.Latency.P999,
		res.Latency.Mean, res.Latency.Max)
	for i, r := range res.Racks {
		state := "alive"
		if !r.Alive {
			state = "DEAD"
		}
		fmt.Printf("  %-8s %-5s epochs=%-5d jobs=%-6d units=%-9.0f queue=%d\n",
			r.Name, state, r.Epochs, r.Jobs, r.Units, r.QueueDepth)
		if i >= 15 && len(res.Racks) > 17 {
			fmt.Printf("  ... %d more racks\n", len(res.Racks)-i-1)
			break
		}
	}
}

// writeMetrics dumps the registry to the -metrics sink, if any.
func writeMetrics(metrics *telemetry.Registry, path string) {
	if path == "" {
		return
	}
	w, closeMetrics, err := openSink(path)
	if err != nil {
		fatal(err)
	}
	if err := metrics.WriteJSON(w); err != nil {
		fatal(fmt.Errorf("metrics %s: %w", path, err))
	}
	if err := closeMetrics(); err != nil {
		fatal(fmt.Errorf("metrics %s: %w", path, err))
	}
}

// buildGroups splits n chips across the named benchmarks, mirroring
// cmd/sprintgame's allocation.
func buildGroups(names []string, n int) ([]sim.Group, error) {
	groups := make([]sim.Group, 0, len(names))
	remaining := n
	for i, name := range names {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		count := remaining / (len(names) - i)
		remaining -= count
		groups = append(groups, sim.Group{Class: b.Name, Count: count, Bench: b})
	}
	return groups, nil
}

// openSink opens path for writing; "-" selects stdout (whose close is a
// no-op so the caller's deferred checks stay uniform).
func openSink(path string) (w *os.File, closeFn func() error, err error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// finishTrace flushes and closes the -trace sink; it is safe to call
// more than once. fatal calls it too, so a failed run's span tree — its
// failed racks included — still reaches the file whole.
var finishTrace = func() error { return nil }

func fatal(err error) {
	_ = finishTrace()
	fmt.Fprintln(os.Stderr, "cluster:", err)
	os.Exit(1)
}
