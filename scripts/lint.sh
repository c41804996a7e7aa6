#!/usr/bin/env bash
# lint.sh — the repo's consolidated static-analysis gate.
#
# Runs, in order:
#
#   1. gofmt -l over the whole tree (both modules and the analyzer
#      golden corpora under tools/lint/*/testdata);
#   2. stock `go vet` on the root module (copylocks among its passes);
#   3. the unprotectedlint invariant suite (tools/lint) over the root
#      module via `go vet -vettool`: directio, maporder, wallclock,
#      poolreturn, ctxsend, plus the stock-pass ports shadow,
#      unusedwrite and nilness. See DESIGN.md §12 for the catalogue.
#
# Any finding fails the script. Deliberate exceptions are annotated in
# the source with `//lint:allow <analyzer> <reason>`; the reason is
# mandatory, and a reason-less allow is itself a finding.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed:"
    echo "$unformatted"
    fail=1
fi

echo "== go vet (stock) =="
go vet ./... || fail=1

echo "== unprotectedlint invariant suite =="
mkdir -p bin
go build -o bin/unprotectedlint ./tools/lint/cmd/unprotectedlint
go vet -vettool="$PWD/bin/unprotectedlint" ./... || fail=1

if [[ "$fail" -ne 0 ]]; then
    echo "lint: FAIL"
    exit 1
fi
echo "lint: OK"
