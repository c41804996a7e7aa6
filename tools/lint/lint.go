// Package lint assembles the unprotectedlint invariant suite: the five
// project-specific analyzers that fossilize contracts previous PRs fixed
// by hand, plus the stock-style passes ported onto the suite's stdlib
// framework. The cmd/unprotectedlint binary feeds this list to the
// unitchecker driver; the analysistest corpora exercise each entry
// individually.
//
// The invariant catalogue (what each analyzer enforces, which bug it
// fossilizes, and the PR that first fixed that bug by hand) lives in
// DESIGN.md §12.
package lint

import (
	"unprotectedlint/analysis"
	"unprotectedlint/ctxsend"
	"unprotectedlint/directio"
	"unprotectedlint/maporder"
	"unprotectedlint/nilness"
	"unprotectedlint/poolreturn"
	"unprotectedlint/shadow"
	"unprotectedlint/unusedwrite"
	"unprotectedlint/wallclock"
)

// Suite is every analyzer the unprotectedlint binary runs, in reporting
// order: the five project invariants first, then the stock passes.
var Suite = []*analysis.Analyzer{
	// Project invariants.
	directio.Analyzer,
	maporder.Analyzer,
	wallclock.Analyzer,
	poolreturn.Analyzer,
	ctxsend.Analyzer,
	// Stock passes (native ports; see each package's doc for the subset
	// covered and why x/tools itself is not imported here). copylocks is
	// not ported: stock go vet already runs it.
	shadow.Analyzer,
	unusedwrite.Analyzer,
	nilness.Analyzer,
}
