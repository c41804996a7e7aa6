package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
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

// options is the option set given in one place — a constructor or an
// Analyze call — and, once resolve has laid the two together, the set one
// run honours.
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

// hasStoreOnly reports whether any option only the Store source
// understands was set.
func (o *options) hasStoreOnly() bool { return len(o.nodes) > 0 || o.hasRange || o.degraded }

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

// sourceKind names the constructor that built a source; its errors say
// which.
type sourceKind string

const (
	simulated sourceKind = "Simulate"
	replayed  sourceKind = "Logs"
	stored    sourceKind = "Store"
)

// source is the one built-in Source: the campaign engine (Simulate), the
// log-replay loader (Logs) or the binary fault store (Store). It holds
// what its constructor was given — the Config or the directory, and the
// options as given — and never changes: every run resolves the options
// afresh, so one Analyze call's options never reach the next.
type source struct {
	kind sourceKind
	cfg  *campaign.Config
	dir  string
	opts []Option
}

// Simulate returns the Source that executes the campaign described by
// cfg. Pass it to Analyze, or range over Events directly for a custom
// consumer.
func Simulate(cfg *campaign.Config) stream.Source { return &source{kind: simulated, cfg: cfg} }

// Logs returns the Source that replays a directory of per-node log files
// — the paper's actual workflow. Options accepted here carry the same
// meaning as on Analyze, which may override them (WithObservers and
// WithoutDataset only take effect through Analyze — a raw Events range
// has no Study to build); an invalid option surfaces as the error of the
// first Events delivery (and from Analyze before the stream starts).
func Logs(dir string, opts ...Option) stream.Source {
	return &source{kind: replayed, dir: dir, opts: slices.Clone(opts)}
}

// Store returns the Source that reads a binary fault store directory
// (see cmd/faultstore for building one from text logs). Options carry
// the same meaning as on Analyze, which may add to them; WithNodes and
// WithTimeRange prune whole segments via the store index before any
// I/O, and each may be given either here or to Analyze but not both
// (two restrictions of the same kind are a conflict, not a union). An
// invalid option surfaces as the error of the first Events delivery
// (and from Analyze before the stream starts).
func Store(dir string, opts ...Option) stream.Source {
	return &source{kind: stored, dir: dir, opts: slices.Clone(opts)}
}

// Events runs the source under its constructor's options alone and
// delivers its parts as the stream (stream.Deliver).
func (s *source) Events(ctx context.Context) iter.Seq2[stream.Event, error] {
	return func(yield func(stream.Event, error) bool) {
		o, err := s.resolve(&options{})
		if err != nil {
			yield(stream.Event{}, fmt.Errorf("unprotected: %w", err))
			return
		}
		p, _, err := s.run(ctx, &o)
		if err != nil {
			yield(stream.Event{}, err)
			return
		}
		stream.Deliver(ctx, yield, p.Stats, p.Faults, p.Sessions)
	}
}

// resolve lays the constructor's options under call, Analyze's (none for
// an Events range), into the options one run honours. call's workers,
// when positive, and its controller win; a simulation's otherwise come
// from its Config and its profile. Observers add up, call's first, and so
// does WithoutDataset. A Store restriction or WithDegraded given in both
// places is a conflict, and Simulate and Logs reject the store-only
// options wherever they were given.
func (s *source) resolve(call *options) (options, error) {
	var o options
	if s.kind == simulated && s.cfg == nil {
		return o, errors.New("Simulate: nil Config (use DefaultConfig)")
	}
	if err := o.apply(s.opts); err != nil {
		return o, fmt.Errorf("%s: %w", s.kind, err)
	}
	if s.kind != stored && (o.hasStoreOnly() || call.hasStoreOnly()) {
		return o, fmt.Errorf("%s: WithNodes/WithTimeRange/WithDegraded apply only to a Store source", s.kind)
	}
	if s.kind == simulated {
		// A nil Profile is an ambient-only campaign: no controller.
		o.workers = s.cfg.Workers
		if p := s.cfg.Profile; p != nil {
			o.controller = p.ControllerNode
		}
	}
	if call.workers > 0 {
		o.workers = call.workers
	}
	if call.hasController {
		o.controller = call.controller
	}
	o.observers = append(call.observers, o.observers...)
	o.noDataset = o.noDataset || call.noDataset
	conflict := func(option string) error {
		return fmt.Errorf("Store: %s given both to Store and to Analyze", option)
	}
	if len(call.nodes) > 0 {
		// Two node restrictions cannot union: WithNodes promises to
		// restrict, and a union would silently widen the constructor's set.
		if len(o.nodes) > 0 {
			return o, conflict("WithNodes")
		}
		o.nodes = call.nodes
	}
	if call.hasRange {
		if o.hasRange {
			return o, conflict("WithTimeRange")
		}
		o.hasRange, o.from, o.to = true, call.from, call.to
	}
	if call.degraded {
		// Two WithDegraded calls could carry two different health sinks.
		if o.degraded {
			return o, conflict("WithDegraded")
		}
		o.degraded, o.health = true, call.health
	}
	return o, nil
}

// run runs the source under the resolved options o and returns its parts
// with the Study they will fill: its raw-log counts, controller,
// pathological node and topology, and a simulation's Config — a shallow
// copy of the caller's when o overrides the worker count, so neither the
// override nor the engine's own defaulting reaches the caller's.
func (s *source) run(ctx context.Context, o *options) (stream.Parts, *Study, error) {
	study := &Study{Dataset: &analysis.Dataset{ControllerNode: o.controller}}
	d := study.Dataset
	var p stream.Parts
	var err error
	switch s.kind {
	case simulated:
		cfg := s.cfg
		if o.workers != cfg.Workers {
			cp := *cfg
			cp.Workers = o.workers
			cfg = &cp
		}
		p, err = campaign.Parts(ctx, cfg)
		study.Config, d.Topo = cfg, cfg.Topo
		if prof := cfg.Profile; prof != nil {
			d.PathologicalNode = prof.PathologicalNode
		}
	case replayed:
		p, err = logstore.Parts(ctx, s.dir, o.workers)
	case stored:
		var st *faultstore.Store
		if st, err = faultstore.Open(s.dir); err != nil {
			return p, nil, fmt.Errorf("unprotected: Store: %w", err)
		}
		p, err = st.Parts(ctx, faultstore.Query{
			Nodes: o.nodes, HasRange: o.hasRange, From: o.from, To: o.to,
			Workers: o.workers, Degraded: o.degraded, Health: o.health,
		})
	}
	if err != nil {
		return p, nil, err
	}
	if d.Topo == nil {
		// A replayed directory and a store carry record streams, not a
		// topology, and the paper's is the only one the per-node analyses
		// know how to map.
		d.Topo = cluster.PaperTopology()
	}
	d.RawLogs, d.RawLogsByNode = p.Stats.RawLogs, p.Stats.RawLogsByNode
	return p, study, nil
}

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
	var call options
	if err := call.apply(opts); err != nil {
		return nil, fmt.Errorf("unprotected: Analyze: %w", err)
	}
	s, ok := src.(*source)
	if !ok {
		return analyzeEvents(ctx, src, &call)
	}
	o, err := s.resolve(&call)
	if err != nil {
		return nil, fmt.Errorf("unprotected: Analyze: %w", err)
	}
	p, study, err := s.run(ctx, &o)
	if err != nil {
		return nil, err
	}
	collect := !o.noDataset
	if study.Figures, err = assemble(ctx, p, o.workers, collect, study.Dataset); err != nil {
		return nil, err
	}
	if err := observe(ctx, o.observers, p, study.Dataset, collect); err != nil {
		return nil, err
	}
	return study, nil
}

// analyzeEvents drains an external Source's Events: each fault and
// session, in the order the source delivers it, is appended to the
// dataset (unless WithoutDataset), folded into the figures and handed to
// the observers.
func analyzeEvents(ctx context.Context, src stream.Source, o *options) (*Study, error) {
	d := &analysis.Dataset{ControllerNode: o.controller, Topo: cluster.PaperTopology()}
	figures := analysis.NewAccumulators(excludedNodes(o.controller)...)
	collect := !o.noDataset
	for ev, err := range src.Events(ctx) {
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case stream.KindStats:
			if st := ev.Stats; st != nil {
				d.RawLogs, d.RawLogsByNode = st.RawLogs, st.RawLogsByNode
				if collect {
					d.Faults = make([]extract.Fault, 0, st.Faults)
					d.Sessions = make([]eventlog.Session, 0, st.Sessions)
				}
			}
		case stream.KindFault:
			if collect {
				d.Faults = append(d.Faults, ev.Fault)
			}
			figures.ObserveFault(ev.Fault)
			for _, ob := range o.observers {
				ob.ObserveFault(ev.Fault)
			}
		case stream.KindSession:
			if collect {
				d.Sessions = append(d.Sessions, ev.Session)
			}
			figures.ObserveSession(ev.Session)
			for _, ob := range o.observers {
				ob.ObserveSession(ev.Session)
			}
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
	// Sealing the figures closes the trailing simultaneity group; the
	// bundle's Finish never fails.
	_ = figures.Finish()
	return &Study{Dataset: d, Figures: figures}, nil
}
