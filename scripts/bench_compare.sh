#!/usr/bin/env bash
# bench_compare.sh — statistical benchmark regression gate for the
# simulator hot path.
#
# Benchmarks are recorded as standard Go benchmark output (benchfmt:
# exactly what `go test -bench -count N` prints), N samples per
# benchmark, and compared with cmd/benchgate: a Mann-Whitney U test over
# the samples per benchmark (the benchstat methodology), failing only on
# shifts that are both statistically significant and beyond the growth
# allowance. This replaces the single-run 20% threshold from PR 3, which
# became noise-limited once the remaining deltas got small.
#
# Usage:
#   scripts/bench_compare.sh record  [out.bench]       # default bench/baseline.bench
#   scripts/bench_compare.sh compare [baseline.bench]  # gate fresh samples against a baseline
#   scripts/bench_compare.sh fig5    [out.bench]       # headline macro benchmark samples
#   scripts/bench_compare.sh workers [out.bench]       # worker scaling sweep (lbm, pot3d, compute-heavy, minisweep) + tables
#   scripts/bench_compare.sh json    <in.bench> [out]  # benchfmt -> flat JSON means (stdout default)
#
# Environment:
#   BENCH_COUNT          samples per benchmark (default 6; the gate wants >= 5)
#   BENCH_TIME           -benchtime per sample (default 200x)
#   BENCH_METRIC         ns/op (default) or allocs/op. Timings are only
#                        comparable on the machine that recorded the
#                        baseline — CI records its own baseline from the
#                        parent commit on the same runner. allocs/op is
#                        deterministic and suits cross-machine comparison
#                        against the checked-in bench/baseline.bench.
#   BENCH_ALPHA          significance level (default 0.05)
#   BENCH_MAX_GROWTH_PCT allowed metric growth before a significant shift
#                        fails the gate (default 10)
#   BENCH_MIN_COUNT      required samples per side (default 5; 0 disables)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-compare}"
COUNT="${BENCH_COUNT:-6}"
BENCHTIME="${BENCH_TIME:-200x}"
METRIC="${BENCH_METRIC:-ns/op}"
ALPHA="${BENCH_ALPHA:-0.05}"
MAX_GROWTH="${BENCH_MAX_GROWTH_PCT:-10}"
MIN_COUNT="${BENCH_MIN_COUNT:-5}"
MICRO_PKGS="./internal/sim ./internal/mpi ./internal/surrogate"

# run_benches <packages> <bench regex> <benchtime> <count>
# Emits raw benchfmt on stdout; non-result lines (goos/pkg headers,
# PASS) ride along harmlessly — the parser skips them.
run_benches() {
    local pkgs="$1" regex="$2" benchtime="$3" count="$4"
    # shellcheck disable=SC2086
    go test -run '^$' -bench "$regex" -benchtime "$benchtime" -count "$count" -benchmem $pkgs
}

count_benches() {
    grep -c '^Benchmark' "$1" || true
}

case "$MODE" in
record)
    OUT="${2:-bench/baseline.bench}"
    mkdir -p "$(dirname "$OUT")"
    run_benches "$MICRO_PKGS" . "$BENCHTIME" "$COUNT" > "$OUT"
    echo "bench_compare: recorded $(count_benches "$OUT") samples ($COUNT per benchmark) to $OUT"
    ;;
fig5)
    OUT="${2:-bench/fig5.bench}"
    mkdir -p "$(dirname "$OUT")"
    # The macro benchmark regenerates all of Fig. 5 per iteration, so one
    # iteration per sample and fewer samples keep the runtime sane.
    run_benches "." '^BenchmarkFig5MultiNode$' 1x "${BENCH_COUNT:-5}" > "$OUT"
    echo "bench_compare: recorded $(count_benches "$OUT") headline macro samples to $OUT"
    ;;
workers)
    # Sweep the partitioned-engine worker ladder on four multi-node
    # jobs — communication-heavy lbm (Fig5), compute-bound pot3d, the
    # compute-heavy staggered-flow job the earliest-output window
    # targets, and the minisweep wavefront whose narrow windows run
    # inline on the coordinator — and print a scaling table per job
    # (mean ns/op, speedup vs the serial engine). Results are
    # byte-identical at every worker count, so the sweep isolates
    # execution strategy. With BENCH_MIN_SPEEDUP set, additionally gate
    # workers=8 vs serial on the lbm and pot3d jobs via benchgate
    # -assert (as the CI psim gate does); the minisweep table is
    # information only. The compute-heavy job's window collapse and the
    # minisweep job's inline windows are pinned by deterministic counter
    # tests (TestComputeHeavyWindowCeiling, TestWavefrontWindowsRunInline).
    OUT="${2:-bench/workers.bench}"
    mkdir -p "$(dirname "$OUT")"
    run_benches "." '^Benchmark(Fig5|Pot3d|ComputeHeavy|Minisweep)MultiNodeJob$' 1x "$COUNT" > "$OUT"
    echo "bench_compare: recorded $(count_benches "$OUT") worker-sweep samples to $OUT"
    awk '
        /^Benchmark(Fig5|Pot3d|ComputeHeavy|Minisweep)MultiNodeJob\// {
            name = $1; sub(/-[0-9]+$/, "", name)
            sub(/^Benchmark/, "", name); sub(/MultiNodeJob\//, "/", name)
            split(name, p, "/"); job = p[1]; eng = p[2]
            sum[name] += $3; n[name]++
            if (!(job in jseen)) { jseen[job] = 1; jorder[++jk] = job }
            if (!(eng in eseen)) { eseen[eng] = 1; eorder[++ek] = eng }
        }
        END {
            for (j = 1; j <= jk; j++) {
                job = jorder[j]
                if (!((job "/serial") in sum)) { printf "bench_compare: no serial samples for %s\n", job; exit 1 }
                base = sum[job "/serial"] / n[job "/serial"]
                printf "%s\n%-18s %14s %10s\n", job, "engine", "mean ns/op", "speedup"
                for (e = 1; e <= ek; e++) {
                    name = job "/" eorder[e]
                    if (!(name in sum)) continue
                    mean = sum[name] / n[name]
                    printf "%-18s %14.0f %9.2fx\n", eorder[e], mean, base / mean
                }
            }
        }' "$OUT"
    if [ -n "${BENCH_MIN_SPEEDUP:-}" ]; then
        for JOB in Fig5 Pot3d; do
            go run ./cmd/benchgate -assert "$OUT" \
                -faster "${JOB}MultiNodeJob/workers=8" -slower "${JOB}MultiNodeJob/serial" \
                -min-speedup "$BENCH_MIN_SPEEDUP" -alpha "$ALPHA" -min-count "$MIN_COUNT"
        done
    fi
    ;;
json)
    IN="${2:?usage: $0 json <in.bench> [out.json]}"
    if [ $# -ge 3 ]; then
        go run ./cmd/benchgate -summarize "$IN" > "$3"
        echo "bench_compare: summarized $IN to $3"
    else
        go run ./cmd/benchgate -summarize "$IN"
    fi
    ;;
compare)
    BASE="${2:-bench/baseline.bench}"
    [ -f "$BASE" ] || { echo "bench_compare: missing baseline $BASE (run: $0 record)"; exit 1; }
    CUR="$(mktemp)"
    trap 'rm -f "$CUR"' EXIT
    run_benches "$MICRO_PKGS" . "$BENCHTIME" "$COUNT" > "$CUR"
    go run ./cmd/benchgate -old "$BASE" -new "$CUR" \
        -metric "$METRIC" -alpha "$ALPHA" -max-growth "$MAX_GROWTH" -min-count "$MIN_COUNT"
    ;;
*)
    echo "usage: $0 {record|compare|fig5|workers|json} [file]" >&2
    exit 2
    ;;
esac
