package main

import (
	"fmt"
	"slices"
	"time"

	"sprintgame/internal/telemetry"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees, measured untraced.
// One operation is a request (serve-*), a solve (solve-sweep) or a
// rack-epoch (route-sim); route-sim's latency is one cluster epoch, all
// racks stepped once.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"max_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload never enters
// reports 0.
var perLayer = []metricDef{
	{"coord.transport_us.p50", "us", "lower"},
	{"coord.parse_us.p50", "us", "lower"},
	{"coord.encode_us.p50", "us", "lower"},
	{"coord.request_self_us.p50", "us", "lower"},
	{"coord.dispatch_self_us.p50", "us", "lower"},
	{"coord.pool_us.p50", "us", "lower"},
	{"coord.pool_us.p99", "us", "lower"},
	{"coord.pool_memo_share", "share", "higher"},
	{"coord.submit_us.p50", "us", "lower"},
	{"core.cache_lookup_us.p50", "us", "lower"},
	{"core.cache_lookup_us.p99", "us", "lower"},
	{"core.cache_hit_rate", "share", "higher"},
	{"core.cache_coalesced_share", "share", "higher"},
	{"core.cache_misses", "count", "lower"},
	{"core.solve_ms.p50", "ms", "lower"},
	{"core.solve_ms.p99", "ms", "lower"},
	{"core.solve_ms.p50.c1", "ms", "lower"},
	{"core.solve_ms.p50.c2", "ms", "lower"},
	{"core.solve_ms.p50.c4", "ms", "lower"},
	{"core.alg1_iters.mean", "count", "lower"},
	{"core.converged_share", "share", "higher"},
	{"core.best_response_gap.max", "utility", "lower"},
	{"core.solver_iter_us.p50", "us", "lower"},
	{"core.bellman_us.p50", "us", "lower"},
	{"core.solve_key_us.p50.c1", "us", "lower"},
	{"core.solve_key_us.p50.c2", "us", "lower"},
	{"core.solve_key_us.p50.c4", "us", "lower"},
	{"route.pick_ns.p50", "ns", "lower"},
	{"route.arrivals_us.p50", "us", "lower"},
	{"cluster.policy_build_ms.sum", "ms", "lower"},
	{"policy.decisions_per_rack_epoch", "count", "lower"},
	{"route.leg_ms.p50", "ms", "lower"},
	{"route.step_share", "share", "lower"},
	{"route.units_per_epoch.round-robin", "units/epoch", "higher"},
	{"route.units_per_epoch.random", "units/epoch", "higher"},
	{"route.units_per_epoch.least-loaded", "units/epoch", "higher"},
	{"route.units_per_epoch.sprint-aware", "units/epoch", "higher"},
	{"route.job_p99_epochs.round-robin", "epochs", "lower"},
	{"route.job_p99_epochs.random", "epochs", "lower"},
	{"route.job_p99_epochs.least-loaded", "epochs", "lower"},
	{"route.job_p99_epochs.sprint-aware", "epochs", "lower"},
	{"go.cpu_us_per_op", "us", "lower"},
	{"go.alloc_bytes_per_op", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"bench.unattributed_share", "share", "lower"},
	{"bench.trace_overhead_share", "share", "lower"},
	{"bench.samples", "count", "higher"},
}

// workloadDef is one named input set the benchmark runs.
type workloadDef struct {
	name string
	// op names one unit of ops_per_s.
	op  string
	run func(phase) (*outcome, error)
}

var workloads = []workloadDef{
	{"serve-hit", "request", func(p phase) (*outcome, error) { return runServe(p, 0) }},
	{"serve-churn", "request", func(p phase) (*outcome, error) { return runServe(p, churnRate) }},
	{"solve-sweep", "solve", runSweep},
	{"route-sim", "rack-epoch", runRoute},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// setupReps is how many times an untraced phase sets up; setup_s is the
// median.
const setupReps = 21

// phase is one timed run of a workload.
type phase struct {
	seed   uint64
	dur    time.Duration
	traced bool
	sink   *spanSink
	tracer *telemetry.Tracer
}

func (p phase) setupReps() int {
	if p.traced {
		return 1
	}
	return setupReps
}

// outcome is what one phase measured and checked.
type outcome struct {
	rec           *recorder
	setup         []time.Duration
	before, after resources
	failures      []string
	// layers holds a traced phase's per-layer metrics.
	layers layerMetrics
	// quality holds route-sim's first-pass serving quality.
	quality map[string]float64
	// attributed is the traced phase's time spent in named layers, and
	// opTotal the end-to-end time of the operations it covers, in ns.
	attributed, opTotal float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

type layerMetrics map[string]float64

// p50Of returns the median of xs under the percentile rule.
func p50Of(xs []float64) (float64, bool) { return quantileOf(xs, 0.5) }

func quantileOf(xs []float64, q float64) (float64, bool) {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return percentile(sorted, q)
}

func (m layerMetrics) p50(base string, s map[string][]float64) {
	if v, ok := quantileOf(s[base], 0.5); ok {
		m[base+".p50"] = v
	}
}

func (m layerMetrics) p99(base string, s map[string][]float64) {
	if v, ok := quantileOf(s[base], 0.99); ok {
		m[base+".p99"] = v
	}
}

func (m layerMetrics) mean(base string, s map[string][]float64) {
	if xs := s[base]; len(xs) > 0 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		m[base+".mean"] = sum / float64(len(xs))
	}
}
