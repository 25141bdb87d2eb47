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
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sprintgame/internal/coord"
	"sprintgame/internal/core"
	"sprintgame/internal/persist"
	"sprintgame/internal/sim"
	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

func main() {
	var (
		apps         = flag.String("apps", "decision=1000", "class counts, e.g. decision=600,pagerank=400")
		serve        = flag.String("serve", "", "serve the coordinator protocol on this TCP address instead")
		bins         = flag.Int("bins", sim.DensityBins, "utility density bins")
		connTimeout  = flag.Duration("conn-timeout", coord.DefaultConnTimeout, "per-connection read/write deadline in serve mode (negative disables)")
		cacheSize    = flag.Int("cache-size", core.DefaultSolveCacheCapacity, "equilibrium solve-cache capacity in serve mode (0 disables caching)")
		cacheDir     = flag.String("cache-dir", "", "serve mode: directory for warm state — solved equilibria spill to <dir>/equilibria.log and reload on start")
		neighborWarm = flag.Bool("neighbor-warm", false, "serve mode: seed cache-miss solves from the nearest cached same-family instance (same classes/densities, drifted counts) instead of cold-starting")
		traceOut     = flag.String("trace", "", "write a JSONL telemetry trace (solver/coordinator events) to this file ('-' for stdout)")
		debugAddr    = flag.String("debug-addr", "", "serve the debug endpoint (/metrics, /debug/pprof, /debug/vars) on this address")
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
			// Live coordinator events are wall-clock stamped.
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
		gameCfg.Tracer = tracer
		// The solve cache memoizes equilibria between profile changes and
		// coalesces concurrent "strategies" requests into one solve; its
		// hit/miss counters appear under solvecache.* on /metrics.
		var cache *core.SolveCache
		if *cacheSize > 0 {
			cache = core.NewSolveCache(*cacheSize, metrics)
			cache.SetNeighborWarm(*neighborWarm)
		} else if *neighborWarm {
			fatal(fmt.Errorf("-neighbor-warm needs -cache-size > 0: seeds come from cached neighbours"))
		}
		if *cacheDir != "" {
			if cache == nil {
				fatal(fmt.Errorf("-cache-dir needs -cache-size > 0: the disk tier spills through the solve cache"))
			}
			if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
				fatal(err)
			}
			store, loaded, err := persist.OpenEquilibriumStore(filepath.Join(*cacheDir, "equilibria.log"))
			if err != nil {
				fatal(err)
			}
			defer store.Close()
			cache.Warm(loaded)
			cache.SetStore(store)
			fmt.Printf("warm start: %d equilibria loaded from %s (%d records skipped)\n",
				len(loaded), store.Path(), store.Skipped())
		}
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
	cfg.Tracer = tracer
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

	eq, err := core.FindEquilibrium(classes, cfg)
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
