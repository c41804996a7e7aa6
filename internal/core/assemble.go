package core

import (
	"context"
	"fmt"
	"runtime"

	"unprotected/internal/analysis"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/kway"
	"unprotected/internal/stream"
)

// assemble folds a built-in source's parts into a sealed figure bundle
// and, when collect is set, fills d's Faults and Sessions, on a
// stream.Collect pool of workers. Every figure is exact and mergeable
// (DESIGN.md §5.4), so only what depends on order is merged:
//
//   - sessions fold in any order: each of up to workers units folds a
//     contiguous run of session parts into a partial of its own;
//   - faults fold in canonical order, from a typed kway merge of every
//     fault part, so no simultaneity group (one node, one FirstAt) is
//     split between partials wherever the parts cut a node's faults;
//   - with collect, typed kway merges write Faults and Sessions straight
//     into their final arrays, and the fault fold walks Faults.
//
// The partials Merge into the returned bundle. Cancelling ctx stops the
// pool from starting further units, and assemble returns ctx.Err() once
// every unit has exited.
func assemble(ctx context.Context, p stream.Parts, workers int, collect bool, d *analysis.Dataset) (*analysis.Accumulators, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	exclude := excludedNodes(d.ControllerNode)
	// Each unit returns the partial it folded, or nil.
	var units []func() *analysis.Accumulators
	if collect {
		// The session merge is the longest unit, so the pool starts it
		// first.
		units = append(units, func() *analysis.Accumulators {
			d.Sessions = kway.Merge(p.Sessions, eventlog.SessionKey, eventlog.CompareSessions)
			return nil
		})
	}
	units = append(units, func() *analysis.Accumulators {
		acc := analysis.NewAccumulators(exclude...)
		fold := func(f *extract.Fault) bool {
			acc.ObserveFault(*f)
			return true
		}
		if collect {
			d.Faults = kway.Merge(p.Faults, extract.Key, extract.Compare)
			each(d.Faults, fold)
		} else {
			kway.Each(p.Faults, extract.Key, extract.Compare, fold)
		}
		return acc
	})
	for _, run := range splitStreams(p.Sessions, workers) {
		units = append(units, func() *analysis.Accumulators {
			acc := analysis.NewAccumulators(exclude...)
			for _, part := range run {
				for i := range part {
					acc.ObserveSession(part[i])
				}
			}
			return acc
		})
	}
	partials, err := stream.Collect(ctx, len(units), workers, func(i int) (*analysis.Accumulators, error) {
		return units[i](), nil
	})
	if err != nil {
		return nil, err
	}
	var figures *analysis.Accumulators
	for _, part := range partials {
		switch {
		case part == nil:
		case figures == nil:
			figures = part
		default:
			figures.Merge(part)
		}
	}
	_ = figures.Finish()
	return figures, nil
}

// observe feeds every observer the canonical stream on the caller's
// goroutine — every fault, then every session — from d's slices when the
// dataset was collected and from kway.Each walks of the parts otherwise,
// checking ctx before every delivery, and then runs each Finish.
func observe(ctx context.Context, obs []stream.Observer, p stream.Parts, d *analysis.Dataset, collect bool) error {
	fault := deliverTo(ctx, obs, stream.Observer.ObserveFault)
	session := deliverTo(ctx, obs, stream.Observer.ObserveSession)
	switch {
	case len(obs) == 0:
	case collect:
		_ = each(d.Faults, fault) && each(d.Sessions, session)
	default:
		_ = kway.Each(p.Faults, extract.Key, extract.Compare, fault) &&
			kway.Each(p.Sessions, eventlog.SessionKey, eventlog.CompareSessions, session)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, ob := range obs {
		if err := ob.Finish(); err != nil {
			return fmt.Errorf("unprotected: Analyze: observer: %w", err)
		}
	}
	return nil
}

// deliverTo returns a visit that hands one element to every observer by
// method, unless ctx is done: then it reports false and delivers nothing.
func deliverTo[T any](ctx context.Context, obs []stream.Observer, method func(stream.Observer, T)) func(*T) bool {
	done := ctx.Done()
	return func(v *T) bool {
		select {
		case <-done:
			return false
		default:
		}
		for _, ob := range obs {
			method(ob, *v)
		}
		return true
	}
}

// each calls visit on every element of xs, in order, until it returns
// false; it reports whether it visited them all.
func each[T any](xs []T, visit func(*T) bool) bool {
	for i := range xs {
		if !visit(&xs[i]) {
			return false
		}
	}
	return true
}

// splitStreams cuts streams into at most n contiguous runs that hold
// about equal shares of the elements.
func splitStreams[T any](streams [][]T, n int) [][][]T {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	if total == 0 {
		return nil
	}
	runs := make([][][]T, 0, n)
	start, seen := 0, 0
	for i, s := range streams {
		seen += len(s)
		if seen*n >= (len(runs)+1)*total {
			runs = append(runs, streams[start:i+1])
			start = i + 1
		}
	}
	return runs
}
