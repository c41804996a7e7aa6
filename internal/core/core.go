// Package core is the study façade: it wires the campaign simulator, the
// extraction methodology and the analysis layer into a single entry point
// that runs the whole reproduction and renders every figure and table of
// the paper. cmd/ binaries and the examples talk to this package (via the
// root unprotected package) rather than to the substrates directly.
//
// The entry point is Analyze(ctx, src): src is any stream.Source — the
// campaign engine (Simulate), the log-replay loader (Logs), or an
// external implementation — and every source feeds the same sink, which
// collects the analysis dataset, drives the incremental figure
// accumulators and fans out to attached observers, so every
// online-computable §III statistic is ready the moment the stream ends,
// after exactly one pass over the source.
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
	Config *campaign.Config
	// Result is the collected campaign output; nil for studies replayed
	// from log files (the logs are the result) and for pure-streaming
	// runs (WithoutDataset collects nothing).
	Result  *campaign.Result
	Dataset *analysis.Dataset
	// Figures holds the figure accumulators Analyze fed during the stream
	// and sealed when it ended. They are the only source of the streamed
	// figures (headline, Figs 4–11, 13): the report, the CSV export and
	// the exported figure accessors all read them.
	Figures *analysis.Accumulators
}

// streamSink adapts a merged (faults, sessions) stream into a Study: it
// collects the dataset slices (when collect is set), feeds the figure
// accumulators, and fans out to any attached external observers, element
// by element. Every Source delivers the canonical orders the
// accumulators require.
type streamSink struct {
	dataset   *analysis.Dataset
	figures   *analysis.Accumulators
	collect   bool
	observers []stream.Observer
}

func newStreamSink(controller, pathological cluster.NodeID) *streamSink {
	var exclude []cluster.NodeID
	var zero cluster.NodeID
	if controller != zero {
		exclude = append(exclude, controller)
	}
	return &streamSink{
		dataset: &analysis.Dataset{
			ControllerNode:   controller,
			PathologicalNode: pathological,
		},
		figures: analysis.NewAccumulators(exclude...),
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
// is a pure read; the bundle's Finish never fails.
func (s *streamSink) study(topo *cluster.Topology, rawLogs int64, rawLogsByNode map[cluster.NodeID]int64) *Study {
	_ = s.figures.Finish()
	s.dataset.Topo = topo
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
func (s *Study) ExcludedNodes() []cluster.NodeID {
	var zero cluster.NodeID
	if s.Dataset.ControllerNode == zero {
		return nil
	}
	return []cluster.NodeID{s.Dataset.ControllerNode}
}
