// Package core is the study façade: it wires the campaign simulator, the
// extraction methodology and the analysis layer into a single entry point
// that runs the whole reproduction and renders every figure and table of
// the paper. cmd/ binaries and the examples talk to this package (via the
// root unprotected package) rather than to the substrates directly.
//
// The entry point is Analyze(ctx, src): src is any stream.Source — the
// campaign engine (Simulate), the log-replay loader (Logs), the fault
// store (Store), or an external implementation. The three constructors
// build one source type, which keeps what it was given and, for every
// run, lays its options under Analyze's by one rule (resolve) before it
// runs its loader (run). A built-in source is assembled from the sorted
// parts its worker pool produced: figure partials fold on the same number
// of workers and merge, and typed merges fill the dataset. An external
// source's stream is drained element by element into the dataset, the
// figure accumulators and the attached observers. Either way every
// online-computable §III statistic is ready when Analyze returns, after
// one run of the source.
package core

import (
	"context"

	"unprotected/internal/analysis"
	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
)

// Study is one executed campaign with its analysis-ready dataset.
type Study struct {
	// Config is the simulated campaign's configuration; nil for studies
	// replayed from log files or read from a fault store.
	Config  *campaign.Config
	Dataset *analysis.Dataset
	// Figures holds the figure accumulators Analyze folded and sealed.
	// They are the only source of the streamed figures (headline,
	// Figs 1–2, 4–11, 13): the report, the CSV export and the exported
	// figure accessors all read them.
	Figures *analysis.Accumulators
}

// RunPaperStudy executes the full-scale study (923 nodes, 13 months) with
// the calibrated paper profile: Analyze(ctx, Simulate(DefaultConfig(seed))).
func RunPaperStudy(seed uint64) *Study {
	study, err := Analyze(context.Background(), Simulate(campaign.DefaultConfig(seed)))
	if err != nil {
		// A simulation source under a background context with no options
		// has no failure path.
		panic("core: RunPaperStudy: " + err.Error())
	}
	return study
}

// ExcludedNodes returns the nodes MTBF-style analyses drop (§III-I): the
// permanently failing controller node.
func (s *Study) ExcludedNodes() []cluster.NodeID { return excludedNodes(s.Dataset.ControllerNode) }

// excludedNodes lists controller, unless it is the zero NodeID.
func excludedNodes(controller cluster.NodeID) []cluster.NodeID {
	if controller == (cluster.NodeID{}) {
		return nil
	}
	return []cluster.NodeID{controller}
}
