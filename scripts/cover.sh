#!/usr/bin/env bash
# cover.sh — statement-coverage gate for one package.
#
#   scripts/cover.sh <pkg> <min-percent>
#
# Runs the package's tests with a coverage profile, prints its total
# statement coverage and fails when that is below <min-percent>. CI runs
# it once per gated package, e.g. `scripts/cover.sh ./internal/sweep 85`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 2 ]]; then
    echo "usage: $0 <pkg> <min-percent>" >&2
    exit 2
fi
pkg=$1
min=$2
profile="$(mktemp)"
trap 'rm -f "$profile"' EXIT

go test -coverprofile="$profile" "$pkg"
pct=$(go tool cover -func="$profile" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
echo "$pkg statement coverage: ${pct:-?}% (minimum ${min}%)"
if [[ -z "$pct" ]]; then
    echo "could not extract the total coverage" >&2
    exit 1
fi
awk -v p="$pct" -v m="$min" 'BEGIN { exit (p + 0 < m + 0) ? 1 : 0 }'
