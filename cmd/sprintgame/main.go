// Command sprintgame simulates a rack of sprinting chip multiprocessors
// under a chosen policy and reports throughput, emergencies, and
// time-in-state shares.
//
// Usage:
//
//	sprintgame -app decision -policy equilibrium -epochs 1000
//	sprintgame -app decision,pagerank -policy greedy -series series.csv
//	sprintgame -trace run.jsonl -metrics metrics.json -debug-addr 127.0.0.1:6060
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"sprintgame/internal/core"
	"sprintgame/internal/policy"
	"sprintgame/internal/power"
	"sprintgame/internal/sim"
	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

func main() {
	var (
		apps      = flag.String("app", "decision", "comma-separated benchmark names (see -apps)")
		listApp   = flag.Bool("apps", false, "list benchmark names and exit")
		polName   = flag.String("policy", "equilibrium", "greedy | backoff | equilibrium | cooperative | never")
		epochs    = flag.Int("epochs", 1000, "epochs to simulate")
		agents    = flag.Int("agents", 1000, "number of agents (chips)")
		seed      = flag.Uint64("seed", 1, "random seed")
		series    = flag.String("series", "", "write per-epoch sprinter counts as CSV to this file")
		traces    = flag.String("traces", "", "drive the simulation from a recorded trace set (JSON from tracegen -o) instead of live generation")
		traceOut  = flag.String("trace", "", "write a JSONL span trace (the equilibrium solve and every epoch, with trips and recoveries) to this file ('-' for stdout)")
		metricsTo = flag.String("metrics", "", "write the final metrics registry as JSON to this file ('-' for stdout)")
		debugAddr = flag.String("debug-addr", "", "serve the debug endpoint (/metrics, /debug/pprof, /debug/vars) on this address while running")
	)
	flag.Parse()

	if *listApp {
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return
	}

	// Telemetry is opt-in: with none of the flags set, the registry and
	// root span stay nil and the hot paths skip all instrumentation.
	var metrics *telemetry.Registry
	var root *telemetry.Span
	if *metricsTo != "" || *debugAddr != "" {
		metrics = telemetry.NewRegistry()
	}
	if *traceOut != "" {
		f, closeTrace, err := openSink(*traceOut)
		if err != nil {
			fatal(err)
		}
		bw := bufio.NewWriter(f)
		tracer := telemetry.NewTracer(bw)
		// One clock-less trace per run, its ID derived from -seed, so a
		// rerun writes a byte-identical trace.
		root = tracer.StartSpan("sprintgame.run", telemetry.TraceIDFromSeed(*seed))
		defer func() {
			root.End()
			if err := tracer.Err(); err != nil {
				fatal(fmt.Errorf("trace %s: %w", *traceOut, err))
			}
			if err := bw.Flush(); err != nil {
				fatal(fmt.Errorf("trace %s: %w", *traceOut, err))
			}
			if err := closeTrace(); err != nil {
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

	game := core.DefaultConfig()
	if *agents != game.N {
		nmin, nmax := game.Trip.Bounds()
		f := float64(*agents) / float64(game.N)
		game.Trip = power.LinearTripModel{NMin: nmin * f, NMax: nmax * f}
		game.N = *agents
	}
	game.Metrics = metrics
	game.Span = root
	game.Trip = power.Instrument(game.Trip, metrics)

	var groups []sim.Group
	if *traces != "" {
		f, err := os.Open(*traces)
		if err != nil {
			fatal(err)
		}
		ts, err := workload.LoadTraceSet(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		groups = []sim.Group{{Class: ts.Benchmark, Count: game.N, TraceSet: ts}}
	} else {
		names := strings.Split(*apps, ",")
		remaining := game.N
		for i, name := range names {
			b, err := workload.ByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			count := remaining / (len(names) - i)
			remaining -= count
			groups = append(groups, sim.Group{Class: b.Name, Count: count, Bench: b})
		}
	}

	cfg := sim.Config{
		Epochs:       *epochs,
		Seed:         *seed,
		Game:         game,
		Groups:       groups,
		RecordSeries: *series != "",
		Metrics:      metrics,
		Span:         root,
	}

	var pol policy.Policy
	switch *polName {
	case "greedy":
		pol = policy.NewGreedy(*seed + 1)
	case "backoff":
		pol = policy.NewExponentialBackoff(*seed + 2)
	case "never":
		pol = policy.Never{}
	case "equilibrium":
		p, eq, err := sim.BuildEquilibriumPolicy(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("equilibrium: Ptrip=%.4f expected sprinters=%.1f (converged=%v, %d iterations)\n",
			eq.Ptrip, eq.Sprinters, eq.Converged, eq.Iterations)
		for _, c := range eq.Classes {
			fmt.Printf("  class %-12s threshold=%.3f ps=%.3f sprint-share=%.3f\n",
				c.Name, c.Threshold, c.SprintProb, c.SprintTimeShare())
		}
		pol = p
	case "cooperative":
		p, res, err := sim.BuildCooperativePolicy(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cooperative: threshold=%.3f analytic rate=%.3f (searched %d candidates)\n",
			res.Best.Threshold, res.Best.Rate, res.Evaluated)
		pol = p
	default:
		fatal(fmt.Errorf("unknown policy %q", *polName))
	}

	res, err := sim.Run(cfg, pol)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\npolicy=%s epochs=%d agents=%d\n", res.Policy, res.Epochs, game.N)
	fmt.Printf("task rate: %.3f units/agent-epoch (normal mode = 1.0)\n", res.TaskRate)
	fmt.Printf("power emergencies: %d\n", res.Trips)
	fmt.Printf("time in states: sprinting=%.1f%% active=%.1f%% cooling=%.1f%% recovery=%.1f%%\n",
		100*res.Shares.Sprinting, 100*res.Shares.ActiveIdle,
		100*res.Shares.Cooling, 100*res.Shares.Recovery)
	for _, g := range res.Groups {
		fmt.Printf("  group %-12s (%4d agents): rate=%.3f mean-sprint-utility=%.2f\n",
			g.Class, g.Count, g.TaskRate, g.MeanSprintUtility)
	}

	if *series != "" {
		if err := writeSeries(*series, res); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote per-epoch series to %s\n", *series)
	}
	if *metricsTo != "" {
		w, closeMetrics, err := openSink(*metricsTo)
		if err != nil {
			fatal(err)
		}
		if err := metrics.WriteJSON(w); err != nil {
			fatal(fmt.Errorf("metrics %s: %w", *metricsTo, err))
		}
		if err := closeMetrics(); err != nil {
			fatal(fmt.Errorf("metrics %s: %w", *metricsTo, err))
		}
	}
}

// writeSeries writes the per-epoch CSV, surfacing every write error —
// including Close, so a full disk cannot silently truncate the file.
func writeSeries(path string, res *sim.Result) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	if _, err := fmt.Fprintln(w, "epoch,sprinters,recovering"); err != nil {
		return err
	}
	for i := range res.SprintersPerEpoch {
		if _, err := fmt.Fprintf(w, "%d,%d,%d\n", i, res.SprintersPerEpoch[i], res.RecoveringPerEpoch[i]); err != nil {
			return err
		}
	}
	return w.Flush()
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sprintgame:", err)
	os.Exit(1)
}
