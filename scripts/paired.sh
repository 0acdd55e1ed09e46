#!/usr/bin/env bash
# paired.sh — paired end-to-end comparison of two commits on one
# perfbench workload.
#
# It checks out BASE and CHANGE as detached git worktrees under a
# scratch directory (removed on exit), builds each side's perfbench
# once, and runs PAIRS pairs per seed, alternating which side runs
# first. Only the closing JSON line of each run is read, so every metric
# keeps full precision (the text report prints setup_s to four
# decimals). Each run becomes one benchfmt line, one unit per metric,
# the end-to-end metrics of BENCHMARK.json plus the share of failed
# requests:
#
#   BenchmarkE2E/workload=sweep-cold/seconds=15/seed=1/side=base 1 0.000693 setup_s 227.4 jobs_per_s ... 0 failed_share
#
# A table follows with, per metric and seed: both medians, the change's
# wins out of the pairs (direction from BENCHMARK.json's `better`; ties
# count for neither side), the base's interquartile range, the
# two-sided Mann-Whitney p from cmd/benchgate, and "worse" where the
# change's median is worse than the base's by more than the metric's
# `bound` (any rise, for the failure share).
#
# Usage:
#   scripts/paired.sh BASE CHANGE --workload W [--seeds 1,1001] [--pairs 10]
#                     [--seconds 15] [--out FILE]
#
# With --out the benchfmt lines are appended to FILE, otherwise they are
# printed ahead of the table. TMPDIR picks where the scratch directory
# goes. Needs git, go and jq; perfbench/ and BENCHMARK.json are only
# read.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
	echo "usage: $0 BASE CHANGE --workload W [--seeds 1,1001] [--pairs 10] [--seconds 15] [--out FILE]" >&2
	exit 2
}
[ $# -ge 2 ] || usage
base_rev=$1 change_rev=$2
shift 2
workload='' seeds=1,1001 pairs=10 seconds=15 out=''
while [ $# -ge 2 ]; do
	case "$1" in
	--workload) workload=$2 ;;
	--seeds) seeds=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--out) out=$2 ;;
	*) usage ;;
	esac
	shift 2
done
[ $# -eq 0 ] && [ -n "$workload" ] || usage
command -v jq >/dev/null || { echo "$0: jq is required" >&2; exit 2; }

# "name better bound" per end-to-end metric, then the failure share.
metrics="$(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' BENCHMARK.json)
failed_share lower 0"
names_json=$(jq -c '[.end_to_end[].name]' BENCHMARK.json)

scratch=$(mktemp -d "${TMPDIR:-/tmp}/paired.XXXXXX")
cleanup() {
	for side in base change; do
		if [ -d "$scratch/$side" ]; then
			git worktree remove --force "$scratch/$side" || true
		fi
	done
	git worktree prune
	rm -rf "$scratch"
}
trap cleanup EXIT

# perfbench/run.sh builds on every call; build each side once the same
# way, and run the binary as run.sh would.
export GOTOOLCHAIN=local GOWORK=off
for side in base change; do
	rev=$base_rev
	[ "$side" = change ] && rev=$change_rev
	git worktree add --quiet --detach "$scratch/$side" "$rev"
	mkdir -p "$scratch/$side/.bench_build/tmp"
	(cd "$scratch/$side/perfbench" && go build -o "$scratch/$side/.bench_build/perfbench" .)
done
go build -o "$scratch/benchgate" ./cmd/benchgate

# run SIDE SEED prints the run's benchfmt line.
run() {
	local dir=$scratch/$1 json
	json=$(cd "$dir" && TMPDIR="$dir/.bench_build/tmp" ./.bench_build/perfbench \
		--workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1)
	if [ "$(jq -r .correct <<<"$json")" != true ]; then
		echo "$0: $1 run of $workload seed $2 produced wrong outputs" >&2
		exit 1
	fi
	jq -r --arg name "BenchmarkE2E/workload=$workload/seconds=$seconds/seed=$2/side=$1" --argjson names "$names_json" '
		[$name, "1"]
		+ [$names[] as $m | (.metrics[$m].value | tostring), $m]
		+ [(if .attempted > 0 then .failed / .attempted else 0 end | tostring), "failed_share"]
		| join(" ")' <<<"$json"
}

runs=$scratch/runs.bench
for seed in ${seeds//,/ }; do
	for i in $(seq 1 "$pairs"); do
		order="base change"
		[ $((i % 2)) -eq 0 ] && order="change base"
		for side in $order; do
			run "$side" "$seed" >>"$runs"
		done
	done
done
if [ -n "$out" ]; then
	cat "$runs" >>"$out"
else
	cat "$runs"
fi

# Mann-Whitney p per metric and seed from benchgate's table, which
# prints p for every difference significant at -alpha (1 here: all) and
# "~" for p = 1; -max-growth keeps its regression flag out of the way.
sed -n 's|/side=base | |p' "$runs" >"$scratch/base.bench"
sed -n 's|/side=change | |p' "$runs" >"$scratch/change.bench"
while read -r m _; do
	"$scratch/benchgate" -old "$scratch/base.bench" -new "$scratch/change.bench" \
		-metric "$m" -alpha 1 -max-growth 1e300 |
		awk -v m="$m" '$1 ~ /^BenchmarkE2E\// {
			split($1, f, "/seed="); p = $NF; if (p == "~") p = 1
			print m, f[2], p
		}' || true
done <<<"$metrics" >"$scratch/pvalues"

awk -v metrics="$metrics" -v seeds="$seeds" '
	function sortv(a, n,   i, j, x) {
		for (i = 2; i <= n; i++) {
			x = a[i]
			for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
			a[j + 1] = x
		}
	}
	# q returns quantile p of the sorted a[1..n], linearly interpolated.
	function q(a, n, p,   h, l) {
		h = 1 + (n - 1) * p
		l = int(h)
		return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
	}
	FILENAME ~ /pvalues$/ { pv[$1 " " $2] = $3; next }
	{
		nf = split($1, f, "/")
		seed = substr(f[nf - 1], 6); side = substr(f[nf], 6)
		for (i = 3; i < NF; i += 2) {
			k = $(i + 1) " " seed " " side
			val[k, ++cnt[k]] = $i
		}
	}
	END {
		nm = split(metrics, ml, "\n"); ns = split(seeds, sl, ",")
		printf "%-16s %6s %14s %14s %8s %6s %12s %7s\n", "metric", "seed", "base median", "change median", "delta", "wins", "base IQR", "p"
		for (mi = 1; mi <= nm; mi++) {
			split(ml[mi], mb, " "); m = mb[1]; lower = mb[2] == "lower"; bound = mb[3]
			for (si = 1; si <= ns; si++) {
				s = sl[si]; kb = m " " s " base"; kc = m " " s " change"
				n = cnt[kb] < cnt[kc] ? cnt[kb] : cnt[kc]
				if (n == 0) continue
				wins = 0
				for (i = 1; i <= n; i++) {
					b[i] = val[kb, i]; c[i] = val[kc, i]
					if (lower ? c[i] < b[i] : c[i] > b[i]) wins++
				}
				sortv(b, n); sortv(c, n)
				bm = q(b, n, 0.5); cm = q(c, n, 0.5)
				delta = bm != 0 ? sprintf("%+.1f%%", 100 * (cm - bm) / bm) : "-"
				worse = lower ? cm > bm * (1 + bound) : cm < bm * (1 - bound)
				printf "%-16s %6s %14.6g %14.6g %8s %3d/%-2d %12.4g %7s%s\n", m, s, bm, cm, delta, wins, n,
					q(b, n, 0.75) - q(b, n, 0.25), pv[m " " s], worse ? "  worse" : ""
			}
		}
	}' "$scratch/pvalues" "$runs"
