#!/usr/bin/env sh
# Benchmark baselines: record the cluster epoch-engine / solve-cache
# benchmarks as BENCH_cluster.json and the core solver benchmarks
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

# Cluster-scale benchmarks.
go test -run '^$' -bench 'BenchmarkCluster' -benchtime "$BENCHTIME" ./internal/cluster >"$RAW"
go test -run '^$' -bench 'BenchmarkSolveCacheHit|BenchmarkFindEquilibriumCold$' \
	-benchtime "$BENCHTIME" ./internal/core >>"$RAW"
json_from_bench <"$RAW" >BENCH_cluster.json
echo "wrote BENCH_cluster.json:"
cat BENCH_cluster.json

# Core solver benchmarks: the exact Bellman solve (small/large
# densities), cold Algorithm 1 runs (1/4/8 classes), the batch solve vs
# per-call solving,
# the neighbour-seeded warm solve vs cold on a near-miss instance, and
# the warm-restart first solve (replay the disk tier + serve from cache)
# vs a cold Algorithm 1 run.
go test -run '^$' \
	-bench 'BenchmarkSolveBellman$|BenchmarkFindEquilibriumCold|BenchmarkSolveBatch|BenchmarkNeighborWarmSolve' \
	-benchtime "$BENCHTIME" ./internal/core >"$RAW"
go test -run '^$' -bench 'BenchmarkFirstSolve' \
	-benchtime "$BENCHTIME" ./internal/persist >>"$RAW"
json_from_bench <"$RAW" >BENCH_core.json
echo "wrote BENCH_core.json:"
cat BENCH_core.json

# bench_ns name-prefix: first matching ns_per_op from BENCH_core.json.
bench_ns() {
	sed -n 's|.*"name": "'"$1"'[^"]*", "iterations": [0-9]*, "ns_per_op": \([0-9.e+]*\).*|\1|p' \
		BENCH_core.json | head -1
}

# bench_metric name-prefix key: first matching extra metric (e.g.
# "iters/op") from BENCH_core.json.
bench_metric() {
	sed -n 's|.*"name": "'"$1"'[^"]*".*"'"$2"'": \([0-9.e+]*\).*|\1|p' \
		BENCH_core.json | head -1
}

# Perf gates. Batched SoA solving must not lose to per-call solving
# (5% tolerance for benchtime noise), and a warm first solve must beat
# a cold one by at least 10x — the regressions this PR sequence fixed
# stay fixed, or this script fails loudly.
batched=$(bench_ns "BenchmarkSolveBatch/batched")
percall=$(bench_ns "BenchmarkSolveBatch/percall")
awk -v b="$batched" -v p="$percall" 'BEGIN {
	if (b == "" || p == "") { print "gate: batch benchmarks missing from BENCH_core.json"; exit 1 }
	if (b > 1.05 * p) { printf "gate: batched solve %s ns/op slower than per-call %s ns/op\n", b, p; exit 1 }
	printf "gate ok: batched %s ns/op <= per-call %s ns/op\n", b, p
}'
# A neighbour-seeded warm solve must never run more Algorithm 1
# iterations than the cold solve of the same near-miss instance — the
# seed approaches the fixed point from above exactly like the cold
# start, only closer, so extra iterations would mean the seeding or the
# selection rule regressed.
coldit=$(bench_metric "BenchmarkNeighborWarmSolve/cold" "iters/op")
warmit=$(bench_metric "BenchmarkNeighborWarmSolve/warm" "iters/op")
awk -v c="$coldit" -v w="$warmit" 'BEGIN {
	if (c == "" || w == "") { print "gate: neighbour-warm benchmarks missing from BENCH_core.json"; exit 1 }
	if (w > c) { printf "gate: neighbour-warm solve took %s iters/op vs %s cold\n", w, c; exit 1 }
	printf "gate ok: neighbour-warm solve %s iters/op <= cold %s iters/op\n", w, c
}'

cold=$(bench_ns "BenchmarkFirstSolve/cold")
warm=$(bench_ns "BenchmarkFirstSolve/warm")
awk -v c="$cold" -v w="$warm" 'BEGIN {
	if (c == "" || w == "") { print "gate: first-solve benchmarks missing from BENCH_core.json"; exit 1 }
	if (10 * w > c) { printf "gate: warm first solve %s ns/op is under 10x faster than cold %s ns/op\n", w, c; exit 1 }
	printf "gate ok: warm first solve %s ns/op is >= 10x faster than cold %s ns/op\n", w, c
}'

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
