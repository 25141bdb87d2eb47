#!/usr/bin/env sh
# Reproducible-output goldens. Every command below is seeded, so its
# output is a fixed function of the source; a change that moves any of
# it shows up here as a diff, not as a claim in prose.
#
#   sh scripts/golden.sh check    # compare against the committed goldens
#   sh scripts/golden.sh update   # re-record them after an intended change
#
# Covered: `experiments -run all -seed 7` against results_full.txt
# (apart from its `completed in` timing lines), equilibrium and
# sprintgame stdout in two configurations each, routebench JSON at
# seeds 1 and 5 (apart from `wall_ms` and the `host` block), and a
# healthy and a degraded cmd/cluster run (apart from the host's NumCPU).
# The goldens other than results_full.txt live in testdata/golden/.
set -eu

cd "$(dirname "$0")/.."

mode=${1:-}
case "$mode" in
check | update) ;;
*)
	echo "usage: sh scripts/golden.sh check|update" >&2
	exit 2
	;;
esac

gold=testdata/golden
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for cmd in experiments equilibrium sprintgame routebench cluster; do
	go build -o "$tmp/$cmd" "./cmd/$cmd"
done

# routebench_json runs one routebench seed and prints its JSON report
# without the wall-clock and host fields.
routebench_json() {
	"$tmp/routebench" -seed "$1" -workers 2 -out "$tmp/route.json" >/dev/null
	sed -e '/"wall_ms"/d' -e '/"host": {/,/}/d' "$tmp/route.json"
}

# cluster_out runs cmd/cluster with two workers and prints its stdout
# without the host's core count.
cluster_out() {
	"$tmp/cluster" -workers 2 "$@" | sed 's/ (NumCPU=[0-9]*)//'
}

out="$tmp/out"
mkdir "$out"
"$tmp/experiments" -run all -seed 7 >"$out/results_full.txt"
"$tmp/equilibrium" >"$out/equilibrium.txt"
"$tmp/equilibrium" -apps decision=600,pagerank=400 >"$out/equilibrium-apps.txt"
"$tmp/sprintgame" >"$out/sprintgame.txt"
"$tmp/sprintgame" -policy equilibrium -epochs 2000 >"$out/sprintgame-equilibrium.txt"
routebench_json 1 >"$out/routebench-seed1.json"
routebench_json 5 >"$out/routebench-seed5.json"
cluster_out >"$out/cluster.txt"
cluster_out -racks 6 -chips 128 -epochs 300 -faults 1@100 >"$out/cluster-degraded.txt"

if [ "$mode" = update ]; then
	mkdir -p "$gold"
	mv "$out/results_full.txt" results_full.txt
	cp "$out"/* "$gold"/
	echo "goldens updated"
	exit 0
fi

failed=0
grep -v 'completed in' results_full.txt >"$tmp/want-experiments.txt"
grep -v 'completed in' "$out/results_full.txt" >"$tmp/got-experiments.txt"
if ! diff -u "$tmp/want-experiments.txt" "$tmp/got-experiments.txt" >"$tmp/diff"; then
	echo "golden mismatch: experiments -run all -seed 7 vs results_full.txt" >&2
	cat "$tmp/diff" >&2
	failed=1
fi
rm "$out/results_full.txt"
for f in "$out"/*; do
	name=$(basename "$f")
	if ! diff -u "$gold/$name" "$f" >"$tmp/diff" 2>&1; then
		echo "golden mismatch: $gold/$name" >&2
		cat "$tmp/diff" >&2
		failed=1
	fi
done
if [ "$failed" -ne 0 ]; then
	echo "outputs differ from the goldens; if the change is intended, run: sh scripts/golden.sh update" >&2
	exit 1
fi
echo "goldens ok"
