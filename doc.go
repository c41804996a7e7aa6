// Package unprotected is a Go reproduction of "Unprotected Computing: A
// Large-Scale Study of DRAM Raw Error Rate on a Supercomputer"
// (Bautista-Gomez, Zyulkyarov, Unsal, McIntosh-Smith; SC'16).
//
// The paper monitored 923 ECC-less LPDDR nodes of the Mont-Blanc prototype
// for 13 months with a software memory scanner, collected >25 million raw
// error logs, distilled them into >55,000 independent DRAM faults and
// analyzed their spatial, temporal and environmental structure. This
// module implements the complete system: the scanner tool, the cluster /
// scheduler / thermal / radiation substrates that replace the physical
// machine (the hardware is simulated — see DESIGN.md for the substitution
// argument), the §II-C extraction methodology, every §III analysis
// (Figures 1–13, Tables I–II), the §IV resilience policies (quarantine,
// page retirement, adaptive checkpointing) and real SECDED/chipkill codecs
// for detectability classification.
//
// # The Source/Observer API
//
// The pipeline has exactly one shape — a merged, canonically ordered
// stream of faults and sessions feeding one-pass analyses — and the API
// exposes it through one door. A Source yields that stream (Simulate runs
// the campaign engine, Logs replays a directory of per-node log files —
// the paper's actual workflow) and Analyze drains it once, building the
// Study every figure and table renders from:
//
//	study, err := unprotected.Analyze(ctx, unprotected.Simulate(unprotected.DefaultConfig(42)))
//	if err != nil { ... }
//	study.FullReport(os.Stdout, unprotected.ReportOptions{Charts: true})
//
// Replaying logged data is the same call with the other source:
//
//	study, err := unprotected.Analyze(ctx, unprotected.Logs(dir,
//		unprotected.WithController("02-04")))
//
// Consumers with their own one-pass accumulators — RowHammer-style
// reliability analyses, exporters, online policies — implement Observer
// (or use FuncObserver) and see the same canonical stream the internal
// figures are folded from, on the caller's goroutine once the figures
// are done; WithoutDataset drops the in-memory dataset for
// pure-streaming runs:
//
//	var n int
//	counter := unprotected.FuncObserver{Fault: func(unprotected.Fault) { n++ }}
//	_, err := unprotected.Analyze(ctx, unprotected.Simulate(cfg),
//		unprotected.WithObservers(counter), unprotected.WithoutDataset())
//
// For full control, range over the stream directly; cancellation and
// early break both shut the source's worker pools down leak-free:
//
//	for ev, err := range unprotected.Simulate(cfg).Events(ctx) {
//		if err != nil { ... }
//		if ev.Kind == unprotected.EventFault { /* one fault at a time */ }
//	}
//
// The stream contract (ordering, cancellation semantics, zero-alloc
// delivery) is specified in DESIGN.md §7. The public API re-exports the
// core types; the substrates live under internal/ and are documented in
// DESIGN.md.
package unprotected

import (
	"context"
	"time"

	"unprotected/internal/analysis"
	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/core"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/stream"
	"unprotected/internal/sweep"
)

// Study is one executed campaign with its analysis-ready dataset.
type Study = core.Study

// Config parameterizes a campaign (topology, scheduler calendar, fault
// profile, RNG seed).
type Config = campaign.Config

// ReportOptions selects FullReport sections.
type ReportOptions = core.ReportOptions

// Fault is one independent memory error with its derived classification
// (§II-C), the unit every analysis counts.
type Fault = extract.Fault

// Session is one scanner run on a node, from START to the matching END.
type Session = eventlog.Session

// NodeID locates a node on the prototype (blade-SoC, e.g. "02-04").
type NodeID = cluster.NodeID

// DefaultConfig returns the calibrated paper-scale configuration, which
// callers may modify before Simulate.
func DefaultConfig(seed uint64) *Config { return campaign.DefaultConfig(seed) }

// RunPaperStudy executes the full-scale calibrated study: 923 scanned
// nodes, February 2015 – February 2016. It is sugar for
// Analyze(ctx, Simulate(DefaultConfig(seed))).
func RunPaperStudy(seed uint64) *Study { return core.RunPaperStudy(seed) }

// Source yields the merged campaign stream — the stats prologue, then
// every fault in canonical (time, node, address, ...) order, then every
// session in (start time, host) order — as a single-use iterator.
// Simulate and Logs are the built-in implementations; external packages
// may implement Source to feed their own datasets through Analyze.
type Source = stream.Source

// Event is one element of a Source's stream: a Fault/Session sum with a
// one-time stats prologue. Exactly the field named by Kind is set.
type Event = stream.Event

// EventKind discriminates the Event sum type.
type EventKind = stream.Kind

const (
	// EventStats is the stream prologue carrying *SourceStats.
	EventStats = stream.KindStats
	// EventFault delivers Event.Fault.
	EventFault = stream.KindFault
	// EventSession delivers Event.Session.
	EventSession = stream.KindSession
)

// SourceStats are the scalar aggregates of a stream, delivered as its
// prologue so collecting consumers can preallocate exactly.
type SourceStats = stream.Stats

// Observer is a pluggable one-pass accumulator over the stream; attach
// with WithObservers. Faults arrive in canonical order, sessions in start
// order, and Finish runs once after the final delivery.
type Observer = stream.Observer

// FuncObserver adapts free functions to Observer; nil fields are skipped.
type FuncObserver = stream.FuncObserver

// Accumulators is the stock Observer bundle computing every
// online-computable §III figure (hour-of-day, temperature, multi-bit,
// simultaneity, daily series, regimes, headline) in one pass. Analyze
// always feeds and seals an internal instance (Study.Figures);
// NewAccumulators builds an independent one for custom pipelines, which
// call its Finish after the last delivery (WithObservers does that).
// Its sums are exact, so bundles fed the parts of one stream combine
// with Merge into the figures of the whole.
type Accumulators = analysis.Accumulators

// NewAccumulators builds a stock figure-accumulator bundle.
// excludeFromRegimes lists the nodes the §III-I regime analysis drops
// (the permanently failing controller node).
func NewAccumulators(excludeFromRegimes ...NodeID) *Accumulators {
	return analysis.NewAccumulators(excludeFromRegimes...)
}

// Option configures Analyze and the built-in sources; invalid values are
// reported as errors before the stream starts.
type Option = core.Option

// WithWorkers bounds the source's worker pool. Zero selects GOMAXPROCS;
// negative values are rejected.
func WithWorkers(n int) Option { return core.WithWorkers(n) }

// WithController names the permanently failing node excluded from
// MTBF-style analyses (§III-I); the empty string disables the exclusion.
// Required for log replay (log files do not record the controller);
// overrides the profile's controller for simulations.
func WithController(node string) Option { return core.WithController(node) }

// WithObservers attaches external accumulators: each sees the canonical
// stream on the caller's goroutine, after the figures are folded.
func WithObservers(obs ...Observer) Option { return core.WithObservers(obs...) }

// WithoutDataset makes Analyze a pure-streaming run: dataset slices stay
// empty while figures and attached observers are still fed, and a
// built-in source skips its session merge unless an observer needs it.
// The streamed figures, Figs 1–2 among them, still render; the report
// sections that recompute from the faults see an empty dataset.
func WithoutDataset() Option { return core.WithoutDataset() }

// Simulate returns the Source that executes the campaign described by
// cfg on the streaming engine.
func Simulate(cfg *Config) Source { return core.Simulate(cfg) }

// Logs returns the Source that replays a directory of per-node log files
// — the paper's actual workflow — through the parallel streaming loader.
// A node's file is the one named exactly node-BB-SS.log in dir itself,
// and a record whose host= names another node fails the replay with the
// file and line.
func Logs(dir string, opts ...Option) Source { return core.Logs(dir, opts...) }

// Store returns the Source that reads a sharded, time-partitioned binary
// fault store built from text logs by cmd/faultstore. It yields the same
// canonical stream Logs does — text stays the interchange format; the
// store is the query-efficient form — and it is the one source that
// understands WithNodes and WithTimeRange, pruning whole segments via
// the store index before any I/O.
func Store(dir string, opts ...Option) Source { return core.Store(dir, opts...) }

// WithNodes restricts a Store source to the named nodes ("blade-SoC",
// e.g. "02-04"). Segments whose index node set is disjoint are never
// opened. Simulate and Logs reject this option.
func WithNodes(nodes ...string) Option { return core.WithNodes(nodes...) }

// WithTimeRange restricts a Store source to records whose prune key —
// fault first-observation time, session start time — falls in [from,
// to). Segments whose index bounds fall outside are never opened.
// Simulate and Logs reject this option.
func WithTimeRange(from, to time.Time) Option { return core.WithTimeRange(from, to) }

// StoreHealth is the queryable report of a degraded store read: the
// segments the query skipped, each with its error and the index-declared
// record counts the skip cost. The zero value is ready to pass to
// WithDegraded; it is safe for concurrent use and accumulates across
// queries.
type StoreHealth = core.StoreHealth

// WithDegraded switches a Store source to degraded reads: a segment that
// cannot be read or fails its checksum is skipped — recorded in h with
// diagnostics, when h is non-nil — instead of failing the analysis.
// Strict hard-error remains the default. Simulate and Logs reject this
// option.
func WithDegraded(h *StoreHealth) Option { return core.WithDegraded(h) }

// Analyze runs src once and assembles the Study: dataset slices (unless
// WithoutDataset), figure accumulators, and every attached Observer, fed
// in canonical order. A built-in source is assembled from its sorted
// parts on its worker pool; an external one is drained element by
// element. Cancelling ctx aborts the run leak-free and returns ctx.Err().
func Analyze(ctx context.Context, src Source, opts ...Option) (*Study, error) {
	return core.Analyze(ctx, src, opts...)
}

// SweepSpec is a declarative parameter sweep: a base Config plus axes to
// vary, expanding by cartesian product into scenarios. The paper is one
// environment; a sweep asks how its headline figures move with altitude
// flux, scan cadence, cluster size, pattern mix or seed replicates.
type SweepSpec = sweep.Spec

// SweepAxis is one sweep dimension: a named, ordered set of points.
type SweepAxis = sweep.Axis

// SweepPoint is one value on an axis: a label plus the mutation it
// applies to a scenario's private Config copy.
type SweepPoint = sweep.Point

// SweepScenario is one expanded axis combination with its own Config.
type SweepScenario = sweep.Scenario

// SweepResult is a completed sweep: per-scenario summaries sorted by
// scenario name, renderable as a cross-scenario comparison table that is
// byte-identical for every worker budget and submission order.
type SweepResult = sweep.Result

// SweepScenarioResult pairs one scenario with its comparison summary and
// the pure-streaming Study behind it.
type SweepScenarioResult = sweep.ScenarioResult

// SweepSummary is one scenario's headline comparison row: raw error
// rate, multi-bit fraction, day/night contrast, worst node.
type SweepSummary = analysis.ScenarioSummary

// SweepOption configures Sweep; invalid values are reported as errors
// before any scenario starts.
type SweepOption = sweep.Option

// WithSweepBudget bounds the sweep's global worker budget: a shared
// semaphore caps concurrent node simulations across all scenarios, so N
// campaigns never oversubscribe the machine. Zero selects GOMAXPROCS.
func WithSweepBudget(n int) SweepOption { return sweep.WithBudget(n) }

// ParseSweepAxes parses "name=v1,v2,..." axis specs (numeric axes accept
// lo:hi:step ranges) into sweep axes; see cmd/sweep for the grammar and
// the known axis names. Malformed specs are descriptive errors.
func ParseSweepAxes(specs []string) ([]SweepAxis, error) { return sweep.ParseAxes(specs) }

// Sweep expands the spec and runs every scenario concurrently under one
// worker budget, each as its own Simulate source through Analyze in
// pure-streaming mode. Cancelling ctx drains the whole fleet leak-free.
func Sweep(ctx context.Context, spec *SweepSpec, opts ...SweepOption) (*SweepResult, error) {
	return sweep.Run(ctx, spec, opts...)
}
