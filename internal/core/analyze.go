package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"time"

	"unprotected/internal/analysis"
	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/faultstore"
	"unprotected/internal/logstore"
	"unprotected/internal/stream"
	"unprotected/internal/timebase"
)

// Option configures Analyze and the built-in sources. Options are
// validated when applied: Analyze (and the first Events call of a source
// built with invalid options) reports a descriptive error instead of
// silently clamping.
type Option func(*options) error

// options is the resolved option set.
type options struct {
	workers       int
	controller    cluster.NodeID
	hasController bool
	observers     []stream.Observer
	noDataset     bool
	// Store-source predicates (WithNodes / WithTimeRange); the other
	// sources reject them.
	nodes    []cluster.NodeID
	hasRange bool
	from, to timebase.T
	// Store-source read mode (WithDegraded); the other sources reject it.
	degraded bool
	health   *faultstore.Health
}

// hasPredicates reports whether a store-only predicate option was set.
func (o *options) hasPredicates() bool { return len(o.nodes) > 0 || o.hasRange }

// hasStoreOnly reports whether any option only the Store source
// understands was set.
func (o *options) hasStoreOnly() bool { return o.hasPredicates() || o.degraded }

func (o *options) apply(opts []Option) error {
	for _, opt := range opts {
		if opt == nil {
			return errors.New("nil Option")
		}
		if err := opt(o); err != nil {
			return err
		}
	}
	return nil
}

// WithWorkers bounds the source's worker pool. Zero selects GOMAXPROCS;
// negative values are rejected (they used to be silently clamped).
func WithWorkers(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("workers must be >= 0, got %d (0 selects GOMAXPROCS)", n)
		}
		o.workers = n
		return nil
	}
}

// WithController names the permanently failing node excluded from
// MTBF-style analyses (§III-I). The empty string disables the exclusion.
// For a simulation source this overrides the profile's controller node;
// for a log-replay source it is the only way to identify it — log files
// do not record which node was the controller.
func WithController(node string) Option {
	return func(o *options) error {
		o.hasController = true
		if node == "" {
			o.controller = cluster.NodeID{}
			return nil
		}
		id, err := cluster.ParseNodeID(node)
		if err != nil {
			return fmt.Errorf("bad controller node: %w", err)
		}
		o.controller = id
		return nil
	}
}

// WithObservers attaches external one-pass accumulators to the stream:
// each observer sees every fault and session in canonical order, on the
// caller's goroutine, and its Finish runs once the stream ends. For a
// built-in source the observers run after the figures are folded, fed
// from the dataset or, under WithoutDataset, from a block merge of the
// source's parts; an external Source feeds them element by element
// beside the figures. A Finish error fails Analyze.
func WithObservers(obs ...stream.Observer) Option {
	return func(o *options) error {
		for _, ob := range obs {
			if ob == nil {
				return errors.New("nil Observer")
			}
		}
		o.observers = append(o.observers, obs...)
		return nil
	}
}

// WithoutDataset makes Analyze a pure-streaming run: the Study's dataset
// slices stay empty (nothing is materialized per event) while the figure
// accumulators and any WithObservers attachments are still fed. A
// built-in source then skips the session merge unless an observer needs
// it. Use it when the consumers are the observers themselves. The report
// sections read from the accumulators, Figs 1–2 among them, still
// render; those that recompute from the faults (Figs 3 and 12, Tables I
// and II, §III-D, the ECC ablation) will see an empty dataset.
func WithoutDataset() Option {
	return func(o *options) error {
		o.noDataset = true
		return nil
	}
}

// WithNodes restricts a Store source to the named nodes: only their
// faults and sessions are delivered, and segments whose index node set
// is disjoint are never opened. Only the fault-store source understands
// it — Simulate and Logs reject it with a descriptive error — and, like
// WithTimeRange, giving it both to Store and to Analyze is a conflict
// error, never a silent union.
func WithNodes(nodes ...string) Option {
	return func(o *options) error {
		if len(nodes) == 0 {
			return errors.New("WithNodes: no nodes given")
		}
		for _, n := range nodes {
			id, err := cluster.ParseNodeID(n)
			if err != nil {
				return fmt.Errorf("WithNodes: %w", err)
			}
			o.nodes = append(o.nodes, id)
		}
		return nil
	}
}

// WithTimeRange restricts a Store source to records whose prune key —
// fault first-observation time, session start time — falls in the
// half-open interval [from, to). Segments whose index bounds fall
// outside are never opened. Only the fault-store source understands it.
func WithTimeRange(from, to time.Time) Option {
	return func(o *options) error {
		if !from.Before(to) {
			return fmt.Errorf("WithTimeRange: from %v is not before to %v", from, to)
		}
		o.hasRange = true
		o.from = timebase.FromTime(from)
		o.to = timebase.FromTime(to)
		return nil
	}
}

// StoreHealth is the queryable report of a degraded store read: every
// segment the query had to skip, with the error and the index-declared
// record counts the skip cost. The zero value is ready to pass to
// WithDegraded.
type StoreHealth = faultstore.Health

// WithDegraded switches a Store source to degraded reads: a segment that
// cannot be read or fails its CRC is skipped — with its diagnostics and
// index-declared record counts recorded in h, when non-nil — instead of
// failing the whole analysis. Strict hard-error remains the default: a
// reliability study must opt in to half-trusting its own storage. Only
// the fault-store source understands it; Simulate and Logs reject it.
func WithDegraded(h *faultstore.Health) Option {
	return func(o *options) error {
		o.degraded = true
		o.health = h
		return nil
	}
}

// configurableSource lets Analyze exchange options with the built-in
// sources: Analyze-level settings the source acts on (worker-pool size)
// flow down, source-baked settings only Analyze can act on (observers,
// WithoutDataset) flow up. configure returns the source to stream from —
// a derived copy when something changed, so neither the caller's Config
// nor a reusable Source is mutated by one Analyze call's options.
type configurableSource interface {
	configure(o *options) (stream.Source, error)
}

// studySource is a built-in source: Analyze builds its Study from the
// sorted parts the source's worker pool produced (assemble) instead of
// draining its Events, and takes the study metadata from it. topology is
// only required to be final after parts has returned (the campaign
// engine defaults it during the run).
type studySource interface {
	parts(ctx context.Context) (stream.Parts, error)
	// workers is the source's pool size, which bounds the assembly too;
	// zero selects GOMAXPROCS.
	workers() int
	controller() cluster.NodeID
	pathological() cluster.NodeID
	topology() *cluster.Topology
}

// simSource adapts the campaign engine to the Source interface.
type simSource struct {
	cfg *campaign.Config
}

// Simulate returns the Source that executes the campaign described by
// cfg. Pass it to Analyze, or range over Events directly for a custom
// consumer.
func Simulate(cfg *campaign.Config) stream.Source { return &simSource{cfg: cfg} }

func (s *simSource) Events(ctx context.Context) iter.Seq2[stream.Event, error] {
	if s.cfg == nil {
		return func(yield func(stream.Event, error) bool) {
			yield(stream.Event{}, errors.New("unprotected: Simulate: nil Config (use DefaultConfig)"))
		}
	}
	return campaign.Events(ctx, s.cfg)
}

func (s *simSource) parts(ctx context.Context) (stream.Parts, error) {
	return campaign.Parts(ctx, s.cfg)
}

func (s *simSource) workers() int { return s.cfg.Workers }

func (s *simSource) configure(o *options) (stream.Source, error) {
	if s.cfg == nil {
		return nil, errors.New("Simulate: nil Config (use DefaultConfig)")
	}
	if o.hasStoreOnly() {
		return nil, errors.New("Simulate: WithNodes/WithTimeRange/WithDegraded apply only to a Store source")
	}
	if o.workers > 0 && o.workers != s.cfg.Workers {
		// Shallow-copy the Config so the override (and the engine's own
		// defaulting) stays local to this Analyze call.
		cfg := *s.cfg
		cfg.Workers = o.workers
		return &simSource{cfg: &cfg}, nil
	}
	return s, nil
}

func (s *simSource) controller() cluster.NodeID {
	if s.cfg != nil && s.cfg.Profile != nil {
		return s.cfg.Profile.ControllerNode
	}
	return cluster.NodeID{}
}

func (s *simSource) pathological() cluster.NodeID {
	if s.cfg != nil && s.cfg.Profile != nil {
		return s.cfg.Profile.PathologicalNode
	}
	return cluster.NodeID{}
}

func (s *simSource) topology() *cluster.Topology {
	if s.cfg == nil {
		return nil
	}
	return s.cfg.Topo
}

// logSource adapts the log-replay loader to the Source interface.
type logSource struct {
	dir  string
	opts options
	err  error // first constructor-option error, surfaced on use
}

// Logs returns the Source that replays a directory of per-node log files
// — the paper's actual workflow. Options accepted here carry the same
// meaning as on Analyze, which may override them (WithObservers and
// WithoutDataset only take effect through Analyze — a raw Events range
// has no Study to build); an invalid option surfaces as the error of the
// first Events delivery (and from Analyze before the stream starts).
func Logs(dir string, opts ...Option) stream.Source {
	s := &logSource{dir: dir}
	s.err = s.opts.apply(opts)
	if s.err == nil && s.opts.hasStoreOnly() {
		s.err = errors.New("WithNodes/WithTimeRange/WithDegraded apply only to a Store source (replay the full directory or ingest it into a store first)")
	}
	return s
}

func (s *logSource) Events(ctx context.Context) iter.Seq2[stream.Event, error] {
	if s.err != nil {
		return func(yield func(stream.Event, error) bool) {
			yield(stream.Event{}, fmt.Errorf("unprotected: Logs: %w", s.err))
		}
	}
	return logstore.Events(ctx, s.dir, s.opts.workers)
}

func (s *logSource) parts(ctx context.Context) (stream.Parts, error) {
	return logstore.Parts(ctx, s.dir, s.opts.workers)
}

func (s *logSource) workers() int { return s.opts.workers }

func (s *logSource) configure(o *options) (stream.Source, error) {
	if s.err != nil {
		return nil, fmt.Errorf("Logs: %w", s.err)
	}
	if o.hasStoreOnly() {
		return nil, errors.New("Logs: WithNodes/WithTimeRange/WithDegraded apply only to a Store source (replay the full directory or ingest it into a store first)")
	}
	// Analyze-level options that the source cannot act on by itself flow
	// the other way: observers and WithoutDataset baked into the Logs call
	// join Analyze's own set, so both spellings are equivalent.
	o.observers = append(o.observers, s.opts.observers...)
	if s.opts.noDataset {
		o.noDataset = true
	}
	if o.workers > 0 && o.workers != s.opts.workers {
		cp := *s
		cp.opts.workers = o.workers
		return &cp, nil
	}
	return s, nil
}

func (s *logSource) controller() cluster.NodeID   { return s.opts.controller }
func (s *logSource) pathological() cluster.NodeID { return cluster.NodeID{} }

// topology returns the prototype's layout: a replayed directory carries
// no topology of its own, and the paper's is the only one the per-node
// analyses know how to map.
func (s *logSource) topology() *cluster.Topology { return cluster.PaperTopology() }

// Analyze runs src once and assembles the Study: the dataset slices
// (unless WithoutDataset), the figure accumulators, and every attached
// observer. It is the one entry point the built-in sources — and any
// external Source implementation — share.
//
// A built-in source (Simulate, Logs, Store) is assembled from the sorted
// parts its worker pool produced, on up to its worker count of
// goroutines: sessions fold into per-worker partials, faults fold in
// canonical order, typed merges fill the dataset, and the partials Merge
// into Study.Figures. An external Source's Events stream is drained into
// the dataset, the figures and the observers element by element. Either
// way the Study's bytes are the same.
//
// Cancelling ctx aborts the run: the source winds its producers down
// leak-free and Analyze returns ctx.Err(). Invalid options (negative
// workers, an unparseable controller node, a nil observer) are reported
// before the stream starts.
func Analyze(ctx context.Context, src stream.Source, opts ...Option) (*Study, error) {
	if src == nil {
		return nil, errors.New("unprotected: Analyze: nil Source")
	}
	var o options
	if err := o.apply(opts); err != nil {
		return nil, fmt.Errorf("unprotected: Analyze: %w", err)
	}
	if cs, ok := src.(configurableSource); ok {
		configured, err := cs.configure(&o)
		if err != nil {
			return nil, fmt.Errorf("unprotected: Analyze: %w", err)
		}
		src = configured
	}

	var controller, pathological cluster.NodeID
	builtin, isBuiltin := src.(studySource)
	if isBuiltin {
		controller, pathological = builtin.controller(), builtin.pathological()
	}
	if o.hasController {
		controller = o.controller
	}

	var study *Study
	var err error
	if isBuiltin {
		study, err = analyzeParts(ctx, builtin, controller, pathological, &o)
	} else {
		study, err = analyzeEvents(ctx, src, controller, pathological, &o)
	}
	if err != nil {
		return nil, err
	}
	study.Dataset.Topo = cluster.PaperTopology()
	if isBuiltin {
		if t := builtin.topology(); t != nil {
			study.Dataset.Topo = t
		}
	}
	if sim, ok := src.(*simSource); ok {
		study.Config = sim.cfg
	}
	return study, nil
}

// analyzeParts assembles a built-in source's Study from its parts, then
// runs the observers on the caller's goroutine, in canonical order.
func analyzeParts(ctx context.Context, src studySource, controller, pathological cluster.NodeID, o *options) (*Study, error) {
	p, err := src.parts(ctx)
	if err != nil {
		return nil, err
	}
	d := &analysis.Dataset{
		ControllerNode:   controller,
		PathologicalNode: pathological,
		RawLogs:          p.Stats.RawLogs,
		RawLogsByNode:    p.Stats.RawLogsByNode,
	}
	figures, err := assemble(ctx, p, src.workers(), !o.noDataset, d)
	if err != nil {
		return nil, err
	}
	if err := observe(ctx, o.observers, p, d, !o.noDataset); err != nil {
		return nil, err
	}
	return &Study{Dataset: d, Figures: figures}, nil
}

// analyzeEvents drains an external Source's Events into the stream sink.
func analyzeEvents(ctx context.Context, src stream.Source, controller, pathological cluster.NodeID, o *options) (*Study, error) {
	sink := newStreamSink(controller, pathological)
	sink.collect = !o.noDataset
	sink.observers = o.observers

	var st stream.Stats
	for ev, err := range src.Events(ctx) {
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case stream.KindStats:
			if ev.Stats != nil {
				st = *ev.Stats
				if sink.collect {
					sink.dataset.Faults = make([]extract.Fault, 0, st.Faults)
					sink.dataset.Sessions = make([]eventlog.Session, 0, st.Sessions)
				}
			}
		case stream.KindFault:
			sink.fault(ev.Fault)
		case stream.KindSession:
			sink.session(ev.Session)
		}
	}
	// Belt and braces: a well-behaved source surfaces cancellation as its
	// final iterator error, but a custom one may just stop yielding.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, ob := range o.observers {
		if err := ob.Finish(); err != nil {
			return nil, fmt.Errorf("unprotected: Analyze: observer: %w", err)
		}
	}
	return sink.study(st.RawLogs, st.RawLogsByNode), nil
}
