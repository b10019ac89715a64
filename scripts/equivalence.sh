#!/usr/bin/env bash
# Checks that the working tree behaves exactly like a given revision: the
# evaluation output regen-bench.sh writes (crasbench_output.txt and the
# BENCH_*.json snapshots), the quick chaos campaign's verbose output, and
# the crasperf digest of every workload at each seed. Every one of them is
# deterministic simulation, so a change that claims no behaviour change
# must leave all of them byte-identical.
#
#   scripts/equivalence.sh <rev> [seed...]     (seeds default to 1)
#
# <rev> is built from `git archive` under .bench_build/equiv/; the outputs
# of both sides land beside it. Exits 1 on any difference, naming it.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
	echo "usage: $0 <rev> [seed...]" >&2
	exit 2
fi
rev=$1
shift
seeds=("${@:-1}")
workloads=(cold-tail premiere vcr-churn cluster-failover)

root="$PWD/.bench_build/equiv"
base="$root/src-$rev"
rm -rf "$base" "$root/out"
mkdir -p "$base" "$root/out/base" "$root/out/work"
git archive "$rev" | tar -x -C "$base"

# collect <tree> <outdir>: every deterministic output of one tree.
collect() {
	local tree=$1 out=$2
	(
		cd "$tree"
		go run ./cmd/crasbench -all -quick -seed 1 -jsondir "$out" > "$out/crasbench_output.txt"
		go run ./cmd/craschaos -quick -seed 1 -v > "$out/chaos.txt" 2>&1 || echo "exit $?" >> "$out/chaos.txt"
		(cd cmd/crasperf && go build -o "$out/crasperf" .)
		for seed in "${seeds[@]}"; do
			for w in "${workloads[@]}"; do
				printf '%s seed %s %s\n' "$w" "$seed" \
					"$("$out/crasperf" -workload "$w" -seed "$seed" 2>/dev/null | grep -o '"digest":"[^"]*"')"
			done
		done > "$out/digests.txt"
		rm -f "$out/crasperf"
	)
}

echo "collecting $rev ..." >&2
collect "$base" "$root/out/base"
echo "collecting the working tree ..." >&2
collect "$PWD" "$root/out/work"

status=0
for f in $(cd "$root/out/base" && ls); do
	if ! diff -u "$root/out/base/$f" "$root/out/work/$f"; then
		echo "DIFFERS: $f" >&2
		status=1
	fi
done
if [ $status -eq 0 ]; then
	echo "equivalent to $rev: crasbench output, BENCH_*.json, chaos output and crasperf digests (seeds ${seeds[*]})" >&2
	cat "$root/out/work/digests.txt" >&2
fi
exit $status
