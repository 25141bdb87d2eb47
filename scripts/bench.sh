#!/usr/bin/env sh
# Benchmark baselines: record the cluster epoch-engine / solve-cache /
# serving-engine benchmarks, the rack simulator's draw costs and the
# coordinator's resubmit cost as BENCH_cluster.json and the core solver
# benchmarks
# (the exact Bellman solve, cold equilibrium solves by class count) as
# BENCH_core.json — one JSON object per benchmark — so successive PRs
# can diff scaling behaviour and the solver's perf trajectory.
#
# Usage: scripts/bench.sh [benchtime]   (default 1s)
#
# The default benchtime is time-based (1s), not 1x: a single iteration
# records "iterations": 1 for every entry and a noisy one-shot ns/op,
# which makes cross-PR diffs meaningless. Pass an explicit count (e.g.
# 1x) only when a smoke run is all that's needed.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-1s}"

# json_from_bench < raw-go-bench-output > json-array
json_from_bench() {
	awk '
	BEGIN { print "[" }
	/^Benchmark/ {
		name = $1
		iters = $2
		ns = $3
		extra = ""
		for (i = 5; i < NF; i += 2) {
			extra = extra sprintf(", \"%s\": %s", $(i+1), $i)
		}
		if (n++) printf ",\n"
		printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s%s}", name, iters, ns, extra
	}
	END { if (n) printf "\n"; print "]" }
	'
}

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# Cluster-scale benchmarks, plus the serving engine on the route-sim
# shape (one untraced Serve per policy, with allocs/op: the per-job
# path allocates nothing, so a jump there is a regression).
go test -run '^$' -bench 'BenchmarkCluster' -benchtime "$BENCHTIME" ./internal/cluster >"$RAW"
go test -run '^$' -bench 'BenchmarkServe$' -benchtime "$BENCHTIME" ./internal/route >>"$RAW"
# The rack simulator's per-draw costs under Serve: one ziggurat normal
# and one trace-generator utility (a truncated-normal draw in a phase).
go test -run '^$' -bench 'BenchmarkNorm$' -benchtime "$BENCHTIME" ./internal/stats >>"$RAW"
go test -run '^$' -bench 'BenchmarkTraceGeneratorNext$' -benchtime "$BENCHTIME" ./internal/workload >>"$RAW"
go test -run '^$' -bench 'BenchmarkSolveCacheHit|BenchmarkFindEquilibriumCold$' \
	-benchtime "$BENCHTIME" ./internal/core >>"$RAW"
# One profile change at the coordinator: a resubmit and the fetch that
# re-pools its class and re-solves (256 agents, 3 classes), with
# allocs/op.
go test -run '^$' -bench 'BenchmarkCoordinatorResubmit$' -benchtime "$BENCHTIME" ./internal/coord >>"$RAW"
json_from_bench <"$RAW" >BENCH_cluster.json
echo "wrote BENCH_cluster.json:"
cat BENCH_cluster.json

# Core solver benchmarks: the exact Bellman solve (small/large
# densities) and cold Algorithm 1 runs (1/4/8 classes).
go test -run '^$' \
	-bench 'BenchmarkSolveBellman$|BenchmarkFindEquilibriumCold' \
	-benchtime "$BENCHTIME" ./internal/core >"$RAW"
json_from_bench <"$RAW" >BENCH_core.json
echo "wrote BENCH_core.json:"
cat BENCH_core.json

# Serving-path benchmark: closed-loop load against the in-process
# coordinator, reported as throughput plus p50/p99/p99.9 latency.
# -curve runs the server under the JSON and binary wire protocols and
# records both points in the report's "curve" array; the headline
# numbers are the binary point.
# coordbench writes the JSON itself — requests/sec and tail
# percentiles, not ns/op — so this stage bypasses json_from_bench.
BENCH_COORD_REQUESTS="${BENCH_COORD_REQUESTS:-2000}"
go build -o "$RAW.coordbench" ./cmd/coordbench
"$RAW.coordbench" -mode closed -concurrency 8 -requests "$BENCH_COORD_REQUESTS" \
	-classes 3 -agents 256 -churn 0.05 -curve -out BENCH_coord.json
rm -f "$RAW.coordbench"
echo "wrote BENCH_coord.json:"
cat BENCH_coord.json

# Routing-policy shootout: every policy serves the identical arrival
# stream on a contended heterogeneous cluster; the report carries
# per-policy throughput and p50/p90/p99/p99.9 job latency. Like
# coordbench, routebench writes its own JSON.
BENCH_ROUTE_EPOCHS="${BENCH_ROUTE_EPOCHS:-600}"
go build -o "$RAW.routebench" ./cmd/routebench
"$RAW.routebench" -racks 8 -chips 64 -epochs "$BENCH_ROUTE_EPOCHS" \
	-load 1.0 -out BENCH_route.json
rm -f "$RAW.routebench"
echo "wrote BENCH_route.json:"
cat BENCH_route.json
