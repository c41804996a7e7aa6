// Package core is the study façade: it wires the campaign simulator, the
// extraction methodology and the analysis layer into a single entry point
// that runs the whole reproduction and renders every figure and table of
// the paper. cmd/ binaries and the examples talk to this package (via the
// root unprotected package) rather than to the substrates directly.
//
// The entry point is Analyze(ctx, src): src is any stream.Source — the
// campaign engine (Simulate), the log-replay loader (Logs), the fault
// store (Store), or an external implementation. A built-in source is
// assembled from the sorted parts its worker pool produced: figure
// partials fold on the same number of workers and merge, and typed
// merges fill the dataset. An external source's stream feeds one sink
// that collects the dataset, drives the figure accumulators and fans out
// to attached observers. Either way every online-computable §III
// statistic is ready when Analyze returns, after one run of the source.
package core

import (
	"context"

	"unprotected/internal/analysis"
	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/stream"
)

// Study is one executed campaign with its analysis-ready dataset.
type Study struct {
	// Config is the simulated campaign's configuration; nil for studies
	// replayed from log files or read from a fault store.
	Config  *campaign.Config
	Dataset *analysis.Dataset
	// Figures holds the figure accumulators Analyze folded and sealed.
	// They are the only source of the streamed figures (headline,
	// Figs 4–11, 13): the report, the CSV export and the exported figure
	// accessors all read them.
	Figures *analysis.Accumulators
}

// streamSink adapts a merged (faults, sessions) stream into a Study: it
// collects the dataset slices (when collect is set), feeds the figure
// accumulators, and fans out to any attached external observers, element
// by element. Analyze feeds it the Events of an external Source, which
// delivers the canonical orders the accumulators require; the built-in
// sources are assembled from their parts instead.
type streamSink struct {
	dataset   *analysis.Dataset
	figures   *analysis.Accumulators
	collect   bool
	observers []stream.Observer
}

func newStreamSink(controller, pathological cluster.NodeID) *streamSink {
	return &streamSink{
		dataset: &analysis.Dataset{
			ControllerNode:   controller,
			PathologicalNode: pathological,
		},
		figures: analysis.NewAccumulators(excludedNodes(controller)...),
		collect: true,
	}
}

func (s *streamSink) fault(f extract.Fault) {
	if s.collect {
		s.dataset.Faults = append(s.dataset.Faults, f)
	}
	s.figures.ObserveFault(f)
	for _, ob := range s.observers {
		ob.ObserveFault(f)
	}
}

func (s *streamSink) session(sess eventlog.Session) {
	if s.collect {
		s.dataset.Sessions = append(s.dataset.Sessions, sess)
	}
	s.figures.ObserveSession(sess)
	for _, ob := range s.observers {
		ob.ObserveSession(sess)
	}
}

// study finalizes the sink once the stream has ended. Sealing the figures
// closes the trailing simultaneity group, so every figure read after this
// is a pure read; the bundle's Finish never fails. The caller sets the
// dataset's topology.
func (s *streamSink) study(rawLogs int64, rawLogsByNode map[cluster.NodeID]int64) *Study {
	_ = s.figures.Finish()
	s.dataset.RawLogs = rawLogs
	s.dataset.RawLogsByNode = rawLogsByNode
	return &Study{Dataset: s.dataset, Figures: s.figures}
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
