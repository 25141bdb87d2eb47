#!/usr/bin/env sh
# Repository check: formatting, vet, build, then tests under the race
# detector. The race passes matter most for internal/telemetry (shared
# registry/tracer), internal/coord (instrumented TCP server, the
# coordinator's per-version equilibrium memo, solve cache singleflight),
# and internal/cluster (worker-pool epoch engine).
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

# bench/ is its own module, so the root ./... above never compiles it: a
# deletion that breaks the benchmark would pass every other step. Vet,
# build and test it with the environment bench/run.sh uses, discarding
# the binary; its tests call the span and Tracer.Emit API.
echo "== go -C bench vet ./... && go -C bench build ./... && go -C bench test ./..."
GOWORK=off GOFLAGS= go -C bench vet ./...
GOWORK=off GOFLAGS= go -C bench build -o /dev/null ./...
GOWORK=off GOFLAGS= go -C bench test ./...

# Quick signal first: the solver's differential tests (exact solve vs
# the value-iteration reference, concurrent solves over lazily-built
# density prefix sums, largest-fixed-point selection and the descent
# witness, and NewDiscrete's sort against the sort.Slice order it
# replaced) and the cluster engine are the most concurrency-sensitive
# paths, so their short-mode race passes run before the full suite.
echo "== go test -race -short -run 'Differential|Parallel|Warm|EquivalenceProperty|LargestFixedPoint|DescentNeverRises|Prefix|SortParity' ./internal/core ./internal/dist"
go test -race -short -run 'Differential|Parallel|Warm|EquivalenceProperty|LargestFixedPoint|DescentNeverRises|Prefix|SortParity' ./internal/core ./internal/dist

# The lock-free histogram and the span/tracer layer sit on the
# coordinator's per-request hot path; their dedicated race tests
# (concurrent Observe/Snapshot, concurrent span emission) run early.
echo "== go test -race ./internal/telemetry"
go test -race ./internal/telemetry

echo "== go test -race -short ./internal/cluster/..."
go test -race -short ./internal/cluster/...

# The coordinator's correctness story is concurrency: concurrent
# requests on one server coalescing into one solve (singleflight),
# Submits racing fetches against the per-version equilibrium memo,
# per-class re-pooling against a full re-pool of every agent, both
# codecs' per-connection scratch buffers, the server behind a
# fault-injecting proxy (delays, drops, partial messages, resets), and
# the fixed set of per-type request counters. Run those suites under
# the race detector by name so a rename that silently drops them from
# this pass is visible here.
echo "== go test -race -run 'Binary|JSON|Singleflight|Coalesce|ConcurrentSubmitAndFetchMatchesFresh|IncrementalPoolMatchesFullRepool|ServerUnderInjectedFaults|UnknownRequestTypes' ./internal/coord ./internal/core"
go test -race -run 'Binary|JSON|Singleflight|Coalesce|ConcurrentSubmitAndFetchMatchesFresh|IncrementalPoolMatchesFullRepool|ServerUnderInjectedFaults|UnknownRequestTypes' ./internal/coord ./internal/core

# The JSON-lines decoders must give json.Unmarshal's result on every
# line. The seed corpora run with the suite; a short fuzz pass per
# target also tries lines nobody wrote down. Minimizing a new input
# defaults to a 60 s budget, which can swallow the whole pass; 100
# executions per input leave the time for mutation.
for target in FuzzJSONRequestDecode FuzzJSONResponseDecode; do
	echo "== go test -run '^\$' -fuzz '^$target\$' -fuzztime 10s -fuzzminimizetime 100x ./internal/coord"
	go test -run '^$' -fuzz "^$target\$" -fuzztime 10s -fuzzminimizetime 100x ./internal/coord
done

# Fault injection exercises the engine's degraded paths (mid-run rack
# kills, partial results, aggregation over the survivors) across worker
# counts, where a data race would silently break the determinism
# contract.
echo "== go test -race -run Fault ./internal/cluster"
go test -race -run Fault ./internal/cluster

# The serving layer's determinism contract (byte-identical results and
# traces for any worker count, including under mid-run rack kills) is
# exactly the kind of guarantee a data race breaks silently.
echo "== go test -race ./internal/route"
go test -race ./internal/route

# Serve steps each rack on its owner goroutine several epochs ahead of
# the dispatcher, which finalizes killed racks and, on an error, stops
# the workers mid-step. One pass schedules the two sides only one way;
# repeating the worker-count, batch-equivalence and shutdown tests gives
# the race detector more interleavings of that handoff.
echo "== go test -race -count 3 -run 'DeterministicAcrossWorkers|MatchesBatch|Shutdown' ./internal/route"
go test -race -count 3 -run 'DeterministicAcrossWorkers|MatchesBatch|Shutdown' ./internal/route

echo "== go test -race ./..."
go test -race ./...

# The rack simulator's random streams are checked statistically, not
# byte for byte: the ziggurat normal against Φ (KS, chi-square, tail
# mass), the trace generator's marginal against Benchmark.Density with
# skipped epochs, and its phase occupancy against the phase weights.
# They are run by name, and each must report PASS, so a rename cannot
# silently drop them. They are single-goroutine, so they run without
# the race detector.
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
echo "== go test -run 'NormKS|Marginal|PhaseOccupancy' ./internal/stats ./internal/workload"
if ! go test -count 1 -v -run 'NormKS|Marginal|PhaseOccupancy' \
	./internal/stats ./internal/workload >"$SMOKE/dist.txt"; then
	cat "$SMOKE/dist.txt" >&2
	exit 1
fi
for name in TestNormKS TestTraceGeneratorMarginal TestTraceGeneratorPhaseOccupancy; do
	grep -q -- "--- PASS: $name " "$SMOKE/dist.txt"
done

# Smoke the serving-path observability pipeline end to end: a short
# closed-loop coordbench run against an in-process server with span
# tracing on, then traceview over the captured trace. This catches
# wiring regressions (spans that stop nesting, phases that vanish)
# that unit tests on individual spans would miss.
echo "== coordbench/traceview smoke"
go build -o "$SMOKE/coordbench" ./cmd/coordbench
go build -o "$SMOKE/traceview" ./cmd/traceview
"$SMOKE/coordbench" -mode closed -concurrency 2 -requests 40 \
	-classes 2 -agents 64 -trace "$SMOKE/spans.jsonl" -out "$SMOKE/bench.json" >/dev/null
"$SMOKE/traceview" "$SMOKE/spans.jsonl" | grep -q 'coord.request'

# Spans are the only trace record: every smoke trace must consist of
# span lines alone, so a flat event cannot creep back in.
spans_only() {
	if grep -v '"event":"span"' "$1"; then
		echo "non-span trace lines in $1" >&2
		exit 1
	fi
}
spans_only "$SMOKE/spans.jsonl"

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
spans_only "$SMOKE/bin-spans.jsonl"

# Same idea for the routing layer: a short policy shootout with span
# tracing on, then traceview over the capture. Greps pin the span tree
# (route.dispatch under route.arrival) and the per-epoch route.epoch
# spans.
echo "== routebench/traceview smoke"
go build -o "$SMOKE/routebench" ./cmd/routebench
"$SMOKE/routebench" -racks 4 -chips 16 -epochs 60 \
	-policies round-robin,least-loaded \
	-trace "$SMOKE/route-spans.jsonl" -out "$SMOKE/route-bench.json" >/dev/null
"$SMOKE/traceview" "$SMOKE/route-spans.jsonl" >"$SMOKE/route-view.txt"
grep -q 'route.serve' "$SMOKE/route-view.txt"
grep -q 'route.dispatch' "$SMOKE/route-view.txt"
grep -q 'cluster.rack' "$SMOKE/route-view.txt"
grep -q 'route.epoch' "$SMOKE/route-view.txt"
spans_only "$SMOKE/route-spans.jsonl"

# Clock-less smoke: the deterministic simulators trace without a wall
# clock. The greps pin the Algorithm 1 solve (core.solve with its
# solver.iter children) and the rack epochs in a sprintgame trace, and
# the per-rack spans of a batch cluster run that loses a rack.
echo "== sprintgame/cluster/traceview smoke"
go build -o "$SMOKE/sprintgame" ./cmd/sprintgame
go build -o "$SMOKE/cluster" ./cmd/cluster
"$SMOKE/sprintgame" -policy equilibrium -epochs 100 -trace "$SMOKE/sim-spans.jsonl" >/dev/null
"$SMOKE/traceview" "$SMOKE/sim-spans.jsonl" >"$SMOKE/sim-view.txt"
grep -q 'core.solve' "$SMOKE/sim-view.txt"
grep -q 'solver.iter' "$SMOKE/sim-view.txt"
grep -q 'sim.epoch' "$SMOKE/sim-view.txt"
spans_only "$SMOKE/sim-spans.jsonl"
# A killed rack degrades the run: it prints the DEGRADED report and
# exits 0, as serving does.
"$SMOKE/cluster" -racks 4 -chips 64 -epochs 50 -faults 1@10 \
	-trace "$SMOKE/cluster-spans.jsonl" >"$SMOKE/cluster-degraded.txt"
grep -q '^DEGRADED: 1/4 racks failed' "$SMOKE/cluster-degraded.txt"
"$SMOKE/traceview" "$SMOKE/cluster-spans.jsonl" >"$SMOKE/cluster-view.txt"
grep -q 'cluster.rack' "$SMOKE/cluster-view.txt"
grep -q 'cluster.epoch' "$SMOKE/cluster-view.txt"
spans_only "$SMOKE/cluster-spans.jsonl"
# The clock-less trace of that degraded run is the same for every
# worker count.
"$SMOKE/cluster" -racks 4 -chips 64 -epochs 50 -faults 1@10 -workers 1 \
	-trace "$SMOKE/cluster-w1.jsonl" >/dev/null
"$SMOKE/cluster" -racks 4 -chips 64 -epochs 50 -faults 1@10 -workers 4 \
	-trace "$SMOKE/cluster-w4.jsonl" >/dev/null
if ! cmp -s "$SMOKE/cluster-w1.jsonl" "$SMOKE/cluster-w4.jsonl"; then
	echo "cluster -faults trace differs between -workers 1 and -workers 4" >&2
	exit 1
fi
# When every rack is killed the run fails, and its span tree — each
# failed rack's span with the fault's epoch and error — must still
# reach the trace file whole. The error is the bare injected fault,
# the same text the serving layer reports for a killed rack.
if "$SMOKE/cluster" -racks 4 -chips 64 -epochs 50 -faults 0@10,1@10,2@10,3@10 \
	-trace "$SMOKE/failed-spans.jsonl" >/dev/null 2>&1; then
	echo "cluster run with every rack killed succeeded" >&2
	exit 1
fi
grep -q '"epoch":10,"error":"injected fault: rack 1 killed at epoch 10"' "$SMOKE/failed-spans.jsonl"
grep -q '"name":"cluster.run"' "$SMOKE/failed-spans.jsonl"
spans_only "$SMOKE/failed-spans.jsonl"

# A batch cluster run's stdout is reproducible at a fixed seed and
# worker count, the solve-cache line included, even when racks sharing
# a mix race to build the same equilibrium. Batch mode prints no timing
# lines, so the two runs must match byte for byte.
"$SMOKE/cluster" -racks 6 -chips 128 -epochs 300 -app decision,pagerank,svm -rotate \
	-workers 4 >"$SMOKE/cluster-a.txt"
"$SMOKE/cluster" -racks 6 -chips 128 -epochs 300 -app decision,pagerank,svm -rotate \
	-workers 4 >"$SMOKE/cluster-b.txt"
grep -q '^solve cache: ' "$SMOKE/cluster-a.txt"
if ! cmp -s "$SMOKE/cluster-a.txt" "$SMOKE/cluster-b.txt"; then
	echo "cluster stdout differs between two identical runs:" >&2
	diff "$SMOKE/cluster-a.txt" "$SMOKE/cluster-b.txt" >&2
	exit 1
fi

# Seeded outputs are pinned: experiments, equilibrium, sprintgame,
# routebench and cmd/cluster must reproduce the committed goldens.
echo "== sh scripts/golden.sh check"
sh scripts/golden.sh check

echo "ok"
