// Command equilibrium runs the coordinator's offline analysis
// (Algorithm 1) for a mix of applications and prints each class's
// equilibrium strategy, or serves the coordinator over TCP.
//
// Usage:
//
//	equilibrium -apps decision=600,pagerank=400
//	equilibrium -serve 127.0.0.1:7077 -debug-addr 127.0.0.1:6060
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"sprintgame/internal/coord"
	"sprintgame/internal/core"
	"sprintgame/internal/sim"
	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

func main() {
	var (
		apps        = flag.String("apps", "decision=1000", "class counts, e.g. decision=600,pagerank=400")
		serve       = flag.String("serve", "", "serve the coordinator protocol on this TCP address instead")
		bins        = flag.Int("bins", sim.DensityBins, "utility density bins")
		connTimeout = flag.Duration("conn-timeout", coord.DefaultConnTimeout, "per-connection read/write deadline in serve mode (negative disables)")
		traceOut    = flag.String("trace", "", "write a JSONL span trace (the solve's Algorithm 1 iterations, or one span tree per coordinator request) to this file ('-' for stdout)")
		debugAddr   = flag.String("debug-addr", "", "serve the debug endpoint (/metrics, /debug/pprof, /debug/vars) on this address")
	)
	flag.Parse()

	var metrics *telemetry.Registry
	var tracer *telemetry.Tracer
	if *debugAddr != "" || *serve != "" {
		metrics = telemetry.NewRegistry()
	}
	if *traceOut != "" {
		f := os.Stdout
		if *traceOut != "-" {
			var err error
			f, err = os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
		}
		bw := bufio.NewWriter(f)
		tracer = telemetry.NewTracer(bw)
		if *serve != "" {
			// Live coordinator spans carry wall-clock timings.
			tracer.WithClock(time.Now)
		}
		defer func() {
			if err := tracer.Err(); err != nil {
				fatal(fmt.Errorf("trace %s: %w", *traceOut, err))
			}
			if err := bw.Flush(); err != nil {
				fatal(fmt.Errorf("trace %s: %w", *traceOut, err))
			}
			if *traceOut != "-" {
				if err := f.Close(); err != nil {
					fatal(fmt.Errorf("trace %s: %w", *traceOut, err))
				}
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

	if *serve != "" {
		gameCfg := core.DefaultConfig()
		gameCfg.Metrics = metrics
		// The coordinator keeps its equilibrium between profile changes;
		// the solve cache remembers earlier workload mixes, so a profile
		// set that returns to one is not solved again. Its hit/miss
		// counters appear under solvecache.* on /metrics.
		cache := core.NewSolveCache(core.DefaultSolveCacheCapacity, metrics)
		c, err := coord.NewCoordinator(gameCfg)
		if err != nil {
			fatal(err)
		}
		srv, err := coord.ServeWith(c, coord.ServeOptions{
			Addr:        *serve,
			ConnTimeout: *connTimeout,
			Metrics:     metrics,
			Tracer:      tracer,
			Cache:       cache,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("coordinator listening on %s (JSON lines or binary frames; types: submit, strategies)\n", srv.Addr())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		_ = srv.Close()
		return
	}

	cfg := core.DefaultConfig()
	cfg.Metrics = metrics
	classes := []core.AgentClass{}
	total := 0
	for _, spec := range strings.Split(*apps, ",") {
		name, countStr, found := strings.Cut(strings.TrimSpace(spec), "=")
		if !found {
			fatal(fmt.Errorf("bad class spec %q, want name=count", spec))
		}
		count, err := strconv.Atoi(countStr)
		if err != nil || count <= 0 {
			fatal(fmt.Errorf("bad count in %q", spec))
		}
		b, err := workload.ByName(name)
		if err != nil {
			fatal(err)
		}
		d, err := b.DiscreteDensity(*bins)
		if err != nil {
			fatal(err)
		}
		classes = append(classes, core.AgentClass{Name: name, Count: count, Density: d})
		total += count
	}
	cfg.N = total

	// The offline solve has no seed: its trace ID derives from the game
	// instance itself, so a rerun writes a byte-identical trace. The
	// solve runs as a core.solve span under the root (a nil cache
	// solves directly).
	root := tracer.StartSpan("equilibrium.run", telemetry.TraceIDFromSeed(core.SolveKey(classes, cfg)))
	cfg.Span = root
	eq, err := (*core.SolveCache)(nil).FindEquilibrium(classes, cfg)
	root.End()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("agents=%d Ptrip=%.4f sprinters=%.1f converged=%v iterations=%d\n",
		total, eq.Ptrip, eq.Sprinters, eq.Converged, eq.Iterations)
	fmt.Printf("%-14s %6s %10s %8s %8s %10s\n",
		"class", "count", "threshold", "ps", "pA", "sprinters")
	for i, c := range eq.Classes {
		fmt.Printf("%-14s %6d %10.3f %8.3f %8.3f %10.1f\n",
			c.Name, classes[i].Count, c.Threshold, c.SprintProb,
			c.ActiveFrac, c.ExpectedSprinters)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "equilibrium:", err)
	os.Exit(1)
}
