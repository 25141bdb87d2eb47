#!/usr/bin/env sh
# Repository check: formatting, vet, build, then tests under the race
# detector. The race passes matter most for internal/telemetry (shared
# registry/tracer), internal/coord (instrumented TCP server + solve
# cache singleflight), and internal/cluster (worker-pool epoch engine).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# Quick signal first: the solver's differential tests (exact solve vs
# the value-iteration reference, concurrent solves over lazily-built
# density prefix sums, largest-fixed-point selection and the descent
# witness) and the cluster engine are the most concurrency-sensitive
# paths, so their short-mode race passes run before the full suite.
echo "== go test -race -short -run 'Differential|Parallel|Warm|EquivalenceProperty|LargestFixedPoint|DescentNeverRises|Prefix' ./internal/core ./internal/dist"
go test -race -short -run 'Differential|Parallel|Warm|EquivalenceProperty|LargestFixedPoint|DescentNeverRises|Prefix' ./internal/core ./internal/dist

# The lock-free histogram and the span/tracer layer sit on the
# coordinator's per-request hot path; their dedicated race tests
# (concurrent Observe/Snapshot, concurrent span emission) run early.
echo "== go test -race ./internal/telemetry"
go test -race ./internal/telemetry

echo "== go test -race -short ./internal/cluster/..."
go test -race -short ./internal/cluster/...

# The coordinator's correctness story is concurrency: concurrent
# requests on one server coalescing into one solve (singleflight), the
# binary codec's per-connection scratch buffers, and the batch solve.
# Run those suites under the race detector by name so a rename that
# silently drops them from this pass is visible here.
echo "== go test -race -run 'Binary|Batch|Singleflight|Coalesce' ./internal/coord ./internal/core"
go test -race -run 'Binary|Batch|Singleflight|Coalesce' ./internal/coord ./internal/core

# The warm-state tiers are shared mutable state by design: spills
# racing lookups through the store hook, the one admission path shared
# by misses, Warm and Admit, concurrent Put on one append-only log, and
# the cluster presolve admitting batches while racks solve lazily. Run
# the persistence and cache-tier suites under the race detector by name
# so a rename that drops them from this pass is visible here.
echo "== go test -race -run 'Spill|Admit|Unconverged|Store|Restart|Log|Packing|Dec' ./internal/core ./internal/persist"
go test -race -run 'Spill|Admit|Unconverged|Store|Restart|Log|Packing|Dec' ./internal/core ./internal/persist

# The neighbour tier mutates the family index and entry equilibria on
# the cache's hit path (lazy indexing, warm-seeded inserts, eviction
# unlinking) while readers hold no lock on the returned equilibrium;
# the hit/Admit race regression and the whole neighbour suite run under
# the race detector by name.
echo "== go test -race -run 'Neighbor|HitAdmitRace' ./internal/core"
go test -race -run 'Neighbor|HitAdmitRace' ./internal/core

echo "== go test -race -run 'Presolve|AutoWorkers' ./internal/cluster"
go test -race -run 'Presolve|AutoWorkers' ./internal/cluster

# Fault injection exercises the engine's degraded paths (mid-run rack
# kills, retries on derived streams, partial aggregation) across worker
# counts, where a data race would silently break the determinism
# contract.
echo "== go test -race -run Fault ./internal/cluster"
go test -race -run Fault ./internal/cluster

# The serving layer's determinism contract (byte-identical results and
# traces for any worker count, including under mid-run rack kills) is
# exactly the kind of guarantee a data race breaks silently.
echo "== go test -race ./internal/route"
go test -race ./internal/route

echo "== go test -race ./..."
go test -race ./...

# Smoke the serving-path observability pipeline end to end: a short
# closed-loop coordbench run against an in-process server with span
# tracing on, then traceview over the captured trace. This catches
# wiring regressions (spans that stop nesting, phases that vanish)
# that unit tests on individual spans would miss.
echo "== coordbench/traceview smoke"
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
go build -o "$SMOKE/coordbench" ./cmd/coordbench
go build -o "$SMOKE/traceview" ./cmd/traceview
"$SMOKE/coordbench" -mode closed -concurrency 2 -requests 40 \
	-classes 2 -agents 64 -trace "$SMOKE/spans.jsonl" -out "$SMOKE/bench.json" >/dev/null
"$SMOKE/traceview" "$SMOKE/spans.jsonl" | grep -q 'coord.request'

# Binary smoke: the same pipeline over the binary protocol. The greps
# pin that the trace and parent IDs the binary codec carries stitch the
# server's coord.request under the client's span in one trace tree
# (the slowest-trace view indents a direct child by four spaces),
# rather than leaving them as disconnected roots.
"$SMOKE/coordbench" -mode closed -concurrency 2 -requests 40 \
	-classes 2 -agents 64 -proto binary \
	-trace "$SMOKE/bin-spans.jsonl" -out "$SMOKE/bin-bench.json" >/dev/null
"$SMOKE/traceview" "$SMOKE/bin-spans.jsonl" >"$SMOKE/bin-view.txt"
grep -q '^slowest trace [0-9a-f]*: coord.client.request' "$SMOKE/bin-view.txt"
grep -q '^    coord.request ' "$SMOKE/bin-view.txt"

# Restart-warm smoke: the same coordbench pipeline against a warm-state
# directory, killed and restarted. The cold run spills its solves; the
# restart must load them back and answer at least 90% of lookups from
# the reloaded tier without re-running Algorithm 1.
echo "== warm-restart smoke"
"$SMOKE/coordbench" -mode closed -concurrency 2 -requests 40 \
	-classes 2 -agents 64 -cache-dir "$SMOKE/warm" \
	-out "$SMOKE/cold-bench.json" >"$SMOKE/cold-run.txt"
grep -q 'warm start: 0 equilibria loaded' "$SMOKE/cold-run.txt"
"$SMOKE/coordbench" -mode closed -concurrency 2 -requests 40 \
	-classes 2 -agents 64 -cache-dir "$SMOKE/warm" \
	-out "$SMOKE/warm-bench.json" >"$SMOKE/warm-run.txt"
grep 'warm start: [1-9]' "$SMOKE/warm-run.txt"
rate=$(sed -n 's/.*warm hit rate \([0-9.]*\)%.*/\1/p' "$SMOKE/warm-run.txt" | head -1)
awk -v r="$rate" 'BEGIN {
	if (r == "" || r < 90) { printf "restart hit rate %s%% is below 90%%\n", r; exit 1 }
	printf "restart hit rate %s%%\n", r
}'

# Same idea for the routing layer: a short policy shootout with span
# tracing on, then traceview over the capture. Greps pin the span tree
# (route.dispatch under route.arrival) and the per-epoch events.
echo "== routebench/traceview smoke"
go build -o "$SMOKE/routebench" ./cmd/routebench
"$SMOKE/routebench" -racks 4 -chips 16 -epochs 60 \
	-policies round-robin,least-loaded \
	-trace "$SMOKE/route-spans.jsonl" -out "$SMOKE/route-bench.json" >/dev/null
"$SMOKE/traceview" "$SMOKE/route-spans.jsonl" >"$SMOKE/route-view.txt"
grep -q 'route.serve' "$SMOKE/route-view.txt"
grep -q 'route.dispatch' "$SMOKE/route-view.txt"
grep -q 'cluster.rack' "$SMOKE/route-view.txt"

echo "ok"
