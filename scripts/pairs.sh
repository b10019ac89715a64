#!/usr/bin/env bash
# Times a revision against the working tree on one crasperf workload: the
# ledger procedure of the README "Performance" section as one command.
#
#   scripts/pairs.sh <rev> <workload> [seed...]     (seeds default to 31..40)
#
# <rev> is built from `git archive` under .bench_build/pairs/, the working
# tree beside it, each once. Then, seed by seed, one run of <rev> and one of
# the working tree alternate, each appending its output to base.json or
# change.json there. The script prints `crasperf -compare base.json
# change.json`, and for wall_per_sim_s the pairs the change won, both
# sides' quartiles, and whether the median gap exceeds the interquartile
# range of <rev>'s runs. Exits with crasperf -compare's status.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	echo "usage: $0 <rev> <workload> [seed...]" >&2
	exit 2
fi
rev=$1
workload=$2
shift 2
if [ $# -gt 0 ]; then
	seeds=("$@")
else
	seeds=(31 32 33 34 35 36 37 38 39 40)
fi

root="$PWD/.bench_build/pairs"
src="$root/src-$rev"
rm -rf "$src"
mkdir -p "$src"
git archive "$rev" | tar -x -C "$src"
export GOCACHE="$PWD/.bench_build/gocache" GOMODCACHE="$PWD/.bench_build/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
echo "building $rev and the working tree ..." >&2
(cd "$src/cmd/crasperf" && go build -o "$root/crasperf-base" .)
(cd cmd/crasperf && go build -o "$root/crasperf-change" .)

: > "$root/base.json"
: > "$root/change.json"
for seed in "${seeds[@]}"; do
	echo "$workload seed $seed ..." >&2
	"$root/crasperf-base" -workload "$workload" -seed "$seed" >> "$root/base.json" 2>/dev/null
	"$root/crasperf-change" -workload "$workload" -seed "$seed" >> "$root/change.json" 2>/dev/null
done

status=0
"$root/crasperf-change" -bench BENCHMARK.json -compare "$root/base.json" "$root/change.json" || status=$?

# wall <file>: the wall_per_sim_s value of every run in the file, in order.
wall() {
	grep -o '"wall_per_sim_s":{"value":[^,}]*' "$1" | sed 's/.*://'
}
paste <(wall "$root/base.json") <(wall "$root/change.json") | awk '
	# quartiles sets q[1..3] from the sorted values v[1..n] as crasperf
	# does: Python statistics.quantiles(n=4), the "exclusive" method.
	function quartiles(v, n, q,    i, j, d, m) {
		m = n + 1
		for (i = 1; i <= 3; i++) {
			j = int(i * m / 4)
			if (j < 1) j = 1
			if (j > n - 1) j = n - 1
			d = i * m - j * 4
			q[i] = (v[j] * (4 - d) + v[j + 1] * d) / 4
		}
	}
	# median of the sorted values v[1..n], interpolated.
	function median(v, n,    p, i) {
		p = 0.5 * (n - 1)
		i = int(p)
		return i + 1 >= n ? v[n] : v[i + 1] + (v[i + 2] - v[i + 1]) * (p - i)
	}
	function sortv(v, n,    i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
				t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
			}
	}
	{ b[NR] = $1; c[NR] = $2; if ($2 < $1) won++ }
	END {
		n = NR
		if (n < 2) { print "wall_per_sim_s: fewer than two pairs"; exit }
		sortv(b, n); sortv(c, n)
		quartiles(b, n, qb); quartiles(c, n, qc)
		mb = median(b, n); mc = median(c, n)
		printf "\nwall_per_sim_s (ms): the change won %d/%d pairs\n", won, n
		printf "  base    q1 %.3f  median %.3f  q3 %.3f\n", qb[1], mb, qb[3]
		printf "  change  q1 %.3f  median %.3f  q3 %.3f\n", qc[1], mc, qc[3]
		gap = mb - mc
		iqr = qb[3] - qb[1]
		verdict = gap > iqr ? "exceeds" : "does not exceed"
		printf "  median gap %.3f (%+.1f%%) %s the base IQR %.3f\n", gap, -100 * gap / mb, verdict, iqr
	}'
exit $status
