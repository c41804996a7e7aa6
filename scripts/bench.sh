#!/usr/bin/env bash
# bench.sh — run the substrate benchmark suite and capture the trajectory.
#
# Runs the BenchmarkSubstrate* group and BenchmarkAnalyzeIterator (root
# package; its allocs/op is what the CI alloc gate holds to the committed
# baseline), BenchmarkLogstoreStream (internal/logstore) and the
# fault-store pair BenchmarkStoreDecode/BenchmarkStoreQueryPruned
# (internal/faultstore; decode MB/s must stay ≥4× the text parser's
# BenchmarkSubstrateParse MB/s) with -benchmem -count=5 and
# writes BENCH_PR7.json mapping each benchmark to its best observed
# {ns_per_op, mb_per_s, b_per_op, allocs_per_op} (minimum ns/op across the
# five runs — the least-noise sample; B/op and allocs/op are deterministic).
# BENCH_PR6.json stays in-tree: the CI allocation gate diffs against it.
#
# Extra arguments are forwarded to `go test`, so CI smoke runs
#   scripts/bench.sh -benchtime=1x
# to keep the harness from rotting without paying full measurement cost.
#
# Environment:
#   BENCH_OUT    output file (default BENCH_PR7.json)
#   BENCH_COUNT  -count value (default 5)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${BENCH_OUT:-BENCH_PR7.json}"
count="${BENCH_COUNT:-5}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run='^$' -bench='^BenchmarkSubstrate|^BenchmarkAnalyzeIterator$' -benchmem -count="$count" "$@" . | tee "$tmp"
go test -run='^$' -bench='^BenchmarkLogstoreStream$' -benchmem -count="$count" "$@" ./internal/logstore | tee -a "$tmp"
go test -run='^$' -bench='^BenchmarkStoreDecode$|^BenchmarkStoreQueryPruned$' -benchmem -count="$count" "$@" ./internal/faultstore | tee -a "$tmp"

awk '
$1 ~ /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    lns = lmb = lbp = lap = ""
    for (i = 2; i < NF; i++) {
        u = $(i + 1)
        if (u == "ns/op") lns = $i + 0
        else if (u == "MB/s") lmb = $i + 0
        else if (u == "B/op") lbp = $i + 0
        else if (u == "allocs/op") lap = $i + 0
    }
    if (lns == "") next
    if (!(name in ns)) { order[++n] = name }
    if (!(name in ns) || lns < ns[name]) {
        ns[name] = lns; mb[name] = lmb; bp[name] = lbp; ap[name] = lap
    }
}
END {
    printf "{\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "  \"%s\": {\"ns_per_op\": %g", name, ns[name]
        if (mb[name] != "") printf ", \"mb_per_s\": %g", mb[name]
        if (bp[name] != "") printf ", \"b_per_op\": %g", bp[name]
        if (ap[name] != "") printf ", \"allocs_per_op\": %g", ap[name]
        printf "}%s\n", (i < n) ? "," : ""
    }
    printf "}\n"
}' "$tmp" > "$out"

echo "wrote $out"
