// Command routebench is the routing-policy shootout: it serves the
// SAME arrival stream (same base seed, same rack simulations) through
// each routing policy and reports per-policy throughput and
// p50/p90/p99/p99.9 job latency into BENCH_route.json.
//
// By default the cluster is heterogeneous — rack pairs split their
// chips 1:3, preserving total capacity — and the offered load is a
// Poisson stream near capacity (-load 1.0). That is deliberately the
// configuration where routing quality shows: round-robin structurally
// overloads the small racks, so least-loaded and sprint-aware must
// beat it or the serving loop has regressed into the batch-dispatch
// degeneracy the mock study warned about (load-aware 3.5x WORSE when
// dispatch happened before simulation).
//
// Usage:
//
//	routebench -racks 8 -chips 64 -epochs 600 -out BENCH_route.json
//	routebench -load 1.2 -policies least-loaded,sprint-aware
//	routebench -arrivals diurnal:base=30,amp=20,burst=3 -faults 0.25
//	routebench -arrivals trace -trace-replay traces.json
//	routebench -trace spans.jsonl        # then: traceview spans.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"time"

	"sprintgame/internal/cluster"
	"sprintgame/internal/core"
	"sprintgame/internal/route"
	"sprintgame/internal/sim"
	"sprintgame/internal/telemetry"
	"sprintgame/internal/workload"
)

func main() {
	var (
		racks     = flag.Int("racks", 8, "number of racks")
		chips     = flag.Int("chips", 64, "mean chips per rack")
		hetero    = flag.Bool("hetero", true, "heterogeneous rack sizes (pairs split chips 1:3); the contended shape")
		epochs    = flag.Int("epochs", 600, "epochs to serve")
		seed      = flag.Uint64("seed", 1, "base seed; all policies share it so arrival streams and rack games are identical")
		load      = flag.Float64("load", 1.0, "offered load as a fraction of nominal capacity (sizes the default Poisson stream)")
		arrivals  = flag.String("arrivals", "", "arrival spec (poisson:..., diurnal:..., trace:...); empty derives a Poisson stream from -load")
		replay    = flag.String("trace-replay", "", "trace-set file (cmd/tracegen output) for arrival kind \"trace\"")
		policies  = flag.String("policies", strings.Join(route.PolicyNames(), ","), "comma-separated routing policies to race")
		app       = flag.String("app", "decision", "benchmark each rack runs")
		sprint    = flag.String("sprint", "equilibrium", "per-rack sprinting policy: greedy | backoff | equilibrium | never")
		faultSpec = flag.String("faults", "", "inject rack faults: kill rate in [0,1] or rack@epoch pairs")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = NumCPU); results are identical for any value")
		out       = flag.String("out", "", "write the JSON report to this file ('-' for stdout)")
		traceOut  = flag.String("trace", "", "write route.serve span JSONL (all policies, distinct trace IDs) to this file")
	)
	flag.Parse()

	bench, err := workload.ByName(*app)
	if err != nil {
		fatal(err)
	}
	var ts *workload.TraceSet
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		ts, err = workload.LoadTraceSet(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	spec := *arrivals
	if spec == "" {
		// Nominal capacity ~= 1 unit per chip-epoch; mean job demand 4.
		spec = fmt.Sprintf("poisson:rate=%g,units=4", *load*float64(*racks**chips)/4)
	}
	arrCfg, err := route.ParseArrivalConfig(spec)
	if err != nil {
		fatal(err)
	}
	var faults *cluster.FaultPlan
	if *faultSpec != "" {
		if faults, err = cluster.ParseFaultPlan(*faultSpec); err != nil {
			fatal(err)
		}
	}
	factory, err := cluster.FactoryByName(*sprint, core.NewSolveCache(0, nil))
	if err != nil {
		fatal(err)
	}

	var tracer *telemetry.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		bw := bufio.NewWriter(f)
		tracer = telemetry.NewTracer(bw)
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

	specs := rackSpecs(*racks, *chips, *hetero, bench)
	report := &Report{
		Racks: *racks, Chips: *chips, Hetero: *hetero, Epochs: *epochs,
		Seed: *seed, Load: *load, Arrivals: spec, Sprint: *sprint,
		Host: hostInfo(),
	}
	names := strings.Split(*policies, ",")
	for _, name := range names {
		name = strings.TrimSpace(name)
		pol, err := route.ByName(name, cluster.MixSeed(*seed, -3)^0x5eed)
		if err != nil {
			fatal(err)
		}
		arr, err := arrCfg.Build(ts)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		res, err := route.Serve(route.Config{
			Cluster: cluster.Config{
				Racks:    specs,
				Epochs:   *epochs,
				BaseSeed: *seed,
				Game:     core.DefaultConfig().Scaled(*chips),
				Workers:  *workers,
				Policy:   factory,
				Faults:   faults,
				Tracer:   tracer,
			},
			Arrivals:  arr,
			Router:    pol,
			TraceSeed: cluster.MixSeed(*seed, -4) ^ hashName(name),
		})
		wall := time.Since(start)
		if err != nil {
			fatal(fmt.Errorf("policy %s: %w", name, err))
		}
		report.Workers = res.Workers
		report.Policies = append(report.Policies, PolicyReport{
			Policy:          res.Policy,
			ThroughputUnits: res.Throughput,
			JobsPerEpoch:    res.JobsPerEpoch,
			Arrived:         res.Arrived,
			Completed:       res.Completed,
			Unfinished:      res.Unfinished,
			Rerouted:        res.Rerouted,
			RacksFailed:     len(res.Failed),
			WallMS:          float64(wall) / 1e6,
			Latency: LatencyReport{
				P50:  res.Latency.P50,
				P90:  res.Latency.P90,
				P99:  res.Latency.P99,
				P999: res.Latency.P999,
				Mean: res.Latency.Mean,
				Max:  res.Latency.Max,
			},
		})
	}

	shape := "homogeneous"
	if *hetero {
		shape = "heterogeneous 1:3"
	}
	fmt.Printf("routebench: %d racks (%s) x ~%d chips, %d epochs, load %.2f, arrivals %s, sprint=%s\n",
		*racks, shape, *chips, *epochs, *load, spec, *sprint)
	fmt.Printf("%-14s %10s %8s %8s %7s %9s %9s %9s %9s %9s\n",
		"policy", "units/ep", "done", "undone", "rerte", "p50", "p90", "p99", "p99.9", "wall")
	for _, p := range report.Policies {
		fmt.Printf("%-14s %10.1f %8d %8d %7d %8.1fe %8.1fe %8.1fe %8.1fe %7.1fms\n",
			p.Policy, p.ThroughputUnits, p.Completed, p.Unfinished, p.Rerouted,
			p.Latency.P50, p.Latency.P90, p.Latency.P99, p.Latency.P999, p.WallMS)
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
}

// rackSpecs builds the cluster's racks. Heterogeneous mode splits each
// rack pair's chips 1:3 (total capacity preserved), so uniform routing
// structurally overloads every even-indexed rack under contention.
func rackSpecs(racks, chips int, hetero bool, bench *workload.Benchmark) []cluster.RackSpec {
	specs := make([]cluster.RackSpec, racks)
	for i := range specs {
		n := chips
		if hetero {
			if i%2 == 0 {
				n = chips / 2
			} else {
				n = chips + chips/2
			}
		}
		game := core.DefaultConfig().Scaled(n)
		specs[i] = cluster.RackSpec{
			Groups: []sim.Group{{Class: bench.Name, Count: n, Bench: bench}},
			Game:   &game,
		}
	}
	return specs
}

// hashName folds a policy name into the trace-seed XOR so each
// policy's span tree gets a distinct, reproducible trace ID.
func hashName(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// LatencyReport holds job-latency quantiles in epochs.
type LatencyReport struct {
	P50  float64 `json:"p50_epochs"`
	P90  float64 `json:"p90_epochs"`
	P99  float64 `json:"p99_epochs"`
	P999 float64 `json:"p99_9_epochs"`
	Mean float64 `json:"mean_epochs"`
	Max  float64 `json:"max_epochs"`
}

// PolicyReport is one policy's leg of the shootout.
type PolicyReport struct {
	Policy          string        `json:"policy"`
	ThroughputUnits float64       `json:"throughput_units_per_epoch"`
	JobsPerEpoch    float64       `json:"jobs_per_epoch"`
	Arrived         int           `json:"arrived"`
	Completed       int           `json:"completed"`
	Unfinished      int           `json:"unfinished"`
	Rerouted        int           `json:"rerouted"`
	RacksFailed     int           `json:"racks_failed"`
	Latency         LatencyReport `json:"latency"`
	// WallMS is the leg's wall-clock serving time, from Serve's call to
	// its return (rack set-up and equilibrium solves included).
	WallMS float64 `json:"wall_ms"`
}

// Host records where a report was measured: wall-clock numbers mean
// little without the core count and Go version beside them.
type Host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

// hostInfo reads the host facts; CPU is "unknown" where /proc/cpuinfo
// does not name a model.
func hostInfo() Host {
	h := Host{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// Report is the shootout's JSON output (BENCH_route.json).
type Report struct {
	Racks    int            `json:"racks"`
	Chips    int            `json:"chips"`
	Hetero   bool           `json:"hetero"`
	Epochs   int            `json:"epochs"`
	Seed     uint64         `json:"seed"`
	Load     float64        `json:"load"`
	Arrivals string         `json:"arrivals"`
	Sprint   string         `json:"sprint_policy"`
	Workers  int            `json:"workers"`
	Host     Host           `json:"host"`
	Policies []PolicyReport `json:"policies"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "routebench:", err)
	os.Exit(1)
}
