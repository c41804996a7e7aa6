package core

import (
	"context"
	"fmt"
	"iter"

	"unprotected/internal/cluster"
	"unprotected/internal/faultstore"
	"unprotected/internal/stream"
)

// storeSource adapts the binary fault store to the Source interface. It
// is the only built-in source that understands the WithNodes and
// WithTimeRange predicates: they become the store query, so segments
// the manifest index rules out are never opened.
type storeSource struct {
	dir  string
	opts options
	err  error // first constructor-option error, surfaced on use
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
	s := &storeSource{dir: dir}
	s.err = s.opts.apply(opts)
	return s
}

// query assembles the store query from the resolved options.
func (s *storeSource) query() faultstore.Query {
	return faultstore.Query{
		Nodes:    s.opts.nodes,
		HasRange: s.opts.hasRange,
		From:     s.opts.from,
		To:       s.opts.to,
		Workers:  s.opts.workers,
		Degraded: s.opts.degraded,
		Health:   s.opts.health,
	}
}

func (s *storeSource) Events(ctx context.Context) iter.Seq2[stream.Event, error] {
	if s.err != nil {
		return func(yield func(stream.Event, error) bool) {
			yield(stream.Event{}, fmt.Errorf("unprotected: Store: %w", s.err))
		}
	}
	return func(yield func(stream.Event, error) bool) {
		p, err := s.parts(ctx)
		if err != nil {
			yield(stream.Event{}, err)
			return
		}
		stream.Deliver(ctx, yield, p.Stats, p.Faults, p.Sessions)
	}
}

func (s *storeSource) parts(ctx context.Context) (stream.Parts, error) {
	st, err := faultstore.Open(s.dir)
	if err != nil {
		return stream.Parts{}, fmt.Errorf("unprotected: Store: %w", err)
	}
	return st.Parts(ctx, s.query())
}

func (s *storeSource) workers() int { return s.opts.workers }

func (s *storeSource) configure(o *options) (stream.Source, error) {
	if s.err != nil {
		return nil, fmt.Errorf("Store: %w", s.err)
	}
	// Observers and WithoutDataset baked into the Store call flow up to
	// Analyze, exactly like the Logs source.
	o.observers = append(o.observers, s.opts.observers...)
	if s.opts.noDataset {
		o.noDataset = true
	}
	// Worker count and predicates flow down into a derived copy, so a
	// reusable Source is never mutated by one Analyze call's options.
	changed := o.workers > 0 && o.workers != s.opts.workers
	if o.hasPredicates() || o.degraded {
		changed = true
	}
	if !changed {
		return s, nil
	}
	cp := *s
	if len(o.nodes) > 0 {
		// Two node restrictions cannot union: WithNodes promises to
		// restrict, and appending would silently widen the constructor's
		// set. Mirror the WithTimeRange conflict and reject.
		if len(cp.opts.nodes) > 0 {
			return nil, fmt.Errorf("Store: WithNodes given both to Store and to Analyze")
		}
		cp.opts.nodes = o.nodes
	}
	if o.hasRange {
		if cp.opts.hasRange {
			return nil, fmt.Errorf("Store: WithTimeRange given both to Store and to Analyze")
		}
		cp.opts.hasRange, cp.opts.from, cp.opts.to = true, o.from, o.to
	}
	if o.degraded {
		// Two WithDegraded calls could carry two different health sinks;
		// reject the ambiguity like the other both-places conflicts.
		if cp.opts.degraded {
			return nil, fmt.Errorf("Store: WithDegraded given both to Store and to Analyze")
		}
		cp.opts.degraded, cp.opts.health = true, o.health
	}
	if o.workers > 0 {
		cp.opts.workers = o.workers
	}
	return &cp, nil
}

func (s *storeSource) controller() cluster.NodeID   { return s.opts.controller }
func (s *storeSource) pathological() cluster.NodeID { return cluster.NodeID{} }

// topology returns the prototype's layout, for the same reason the log
// source does: a store carries record streams, not a topology, and the
// paper's is the only one the per-node analyses know how to map.
func (s *storeSource) topology() *cluster.Topology { return cluster.PaperTopology() }
