#!/usr/bin/env bash
# selectors.sh — fail on a test selector that names no test.
#
#   scripts/selectors.sh [file ...]   (default: .github/workflows/ci.yml scripts/bench.sh)
#
# `go test -run RE` and `-bench RE` pass when RE matches nothing, so a
# renamed or deleted test silently empties the step that names it. For
# every `go test` line of the files that selects with -run, -bench or
# -fuzz, this lists each top-level alternative of the pattern in the
# line's packages with stock `go test -list`, and fails on an
# alternative that names no test, benchmark, fuzz test or example. A
# pattern wrapped whole as ^(A|B)$ has the alternatives ^A$ and ^B$.
# '^$' and NONE select nothing on purpose and are exempt.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -eq 0 ]]; then
    set -- .github/workflows/ci.yml scripts/bench.sh
fi

# alternatives prints the top-level alternatives of a pattern, one a line.
alternatives() {
    awk -v re="$1" 'BEGIN {
        pre = ""; post = ""
        if (re ~ /^\^\(.*\)\$$/) {
            inner = substr(re, 3, length(re) - 4)
            depth = 0; whole = 1
            for (i = 1; i <= length(inner); i++) {
                c = substr(inner, i, 1)
                if (c == "(") depth++
                else if (c == ")" && --depth < 0) whole = 0
            }
            if (whole && depth == 0) { re = inner; pre = "^"; post = "$" }
        }
        depth = 0; alt = ""
        for (i = 1; i <= length(re); i++) {
            c = substr(re, i, 1)
            if (c == "(") depth++
            else if (c == ")") depth--
            if (c == "|" && depth == 0) { print pre alt post; alt = ""; continue }
            alt = alt c
        }
        print pre alt post
    }'
}

fail=0
checked=0
for file in "$@"; do
    while IFS= read -r line; do
        [[ "$line" =~ ^[[:space:]]*# ]] && continue
        [[ "$line" == *"go test "* ]] || continue
        cmd=${line#*go test }
        cmd=${cmd%% | *}
        cmd=${cmd//\'/}
        cmd=${cmd//\"/}
        read -ra words <<<"$cmd"
        patterns=() pkgs=()
        for ((i = 0; i < ${#words[@]}; i++)); do
            w=${words[i]}
            case "$w" in
            -run=* | -bench=* | -fuzz=*) patterns+=("${w#*=}") ;;
            -run | -bench | -fuzz) patterns+=("${words[++i]}") ;;
            -count | -benchtime | -fuzztime | -timeout | -cpu) ((++i)) ;;
            -* | \$*) ;;
            *) pkgs+=("${w%)}") ;;
            esac
        done
        ((${#pkgs[@]})) || pkgs=(.)
        for pat in ${patterns[@]+"${patterns[@]}"}; do
            [[ "$pat" == '^$' || "$pat" == NONE ]] && continue
            while IFS= read -r alt; do
                checked=$((checked + 1))
                if ! names=$(go test -list "$alt" "${pkgs[@]}"); then
                    echo "$file: go test -list '$alt' ${pkgs[*]} failed" >&2
                    fail=1
                elif ! grep -qE '^(Test|Benchmark|Fuzz|Example)' <<<"$names"; then
                    echo "$file: '$alt' (of '$pat') names no test in ${pkgs[*]}" >&2
                    fail=1
                fi
            done < <(alternatives "$pat")
        done
    done <"$file"
done

if [[ "$fail" -ne 0 ]]; then
    echo "selectors: FAIL"
    exit 1
fi
echo "selectors: OK ($checked alternatives)"
