// Package monitor is the long-running fleet monitor's serving core: it
// tails a live log directory through logstore.Follow, folds every record
// into per-node §II-C state incrementally, and publishes immutable Study
// snapshots that N concurrent HTTP readers consume without ever
// contending with ingest.
//
// The concurrency design is a single-writer epoch pointer swap. One
// goroutine (Run) owns all mutable ingest state — per-node collapsers and
// session accounting — and nothing else may touch it. At every poll-round
// boundary it rebuilds a complete *Snapshot and publishes it with one
// atomic pointer store; readers load the pointer and hold an immutable
// value forever after. No lock is ever held across a render, and a slow
// reader delays nobody: it just keeps an old epoch alive.
//
// Snapshots are rebuilt in the canonical global order, not arrival order:
// follow-mode delivers records in per-node arrival order, but the figure
// accumulators (the simultaneity grouper above all) require the canonical
// merged order, so each snapshot re-sorts the per-node state and streams
// it through core.Analyze exactly the way the one-shot log replay does.
// At quiescence the snapshot is therefore byte-identical to a one-shot
// Analyze over the same directory — the equivalence DESIGN.md §13 argues
// and TestMonitorQuiescenceEquivalence pins.
package monitor

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/core"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/fdlimit"
	"unprotected/internal/iofault"
	"unprotected/internal/logstore"
	"unprotected/internal/stream"
)

// Option configures a Monitor.
type Option func(*Monitor) error

// WithController names the permanently failing node excluded from
// MTBF-style analyses (§III-I), exactly as core.WithController does for a
// one-shot replay. Empty disables the exclusion.
func WithController(node string) Option {
	return func(m *Monitor) error {
		if node != "" {
			if _, err := cluster.ParseNodeID(node); err != nil {
				return err
			}
		}
		m.controller = node
		return nil
	}
}

// WithInterval sets the tail poll cadence (default one second).
func WithInterval(d time.Duration) Option {
	return func(m *Monitor) error {
		if d <= 0 {
			return fmt.Errorf("monitor: non-positive poll interval %v", d)
		}
		m.follow = append(m.follow, logstore.FollowWithInterval(d))
		return nil
	}
}

// WithFS routes the tailer's file operations through fsys — the chaos
// tests' injection seam.
func WithFS(fsys iofault.FS) Option {
	return func(m *Monitor) error {
		m.follow = append(m.follow, logstore.FollowWithFS(fsys))
		return nil
	}
}

// WithBudget meters the tailer's long-lived descriptors from b instead of
// the shared process-wide pool.
func WithBudget(b *fdlimit.Budget) Option {
	return func(m *Monitor) error {
		m.follow = append(m.follow, logstore.FollowWithBudget(b))
		return nil
	}
}

// WithTicker injects the poll ticker (see logstore.FollowWithTicker);
// tests drive rounds deterministically through it.
func WithTicker(wait func(ctx context.Context) bool) Option {
	return func(m *Monitor) error {
		m.follow = append(m.follow, logstore.FollowWithTicker(wait))
		return nil
	}
}

// Monitor tails one log directory and serves its evolving Study.
// Construct with New, start exactly one Run, and share the Monitor
// freely among HTTP handlers: Snapshot and Stats are safe for any number
// of concurrent callers.
type Monitor struct {
	dir        string
	controller string
	follow     []logstore.FollowOption
	stats      logstore.FollowStats

	// snap is the epoch pointer: Run stores, everyone else loads. Nil
	// until the first poll round completes.
	snap atomic.Pointer[Snapshot]

	// Ingest state below is owned exclusively by the Run goroutine.
	nodes map[cluster.NodeID]*nodeState
	order []cluster.NodeID // sorted keys of nodes
	dirty bool
	epoch int64
}

// nodeState is one node's incremental §II-C pipeline: records fold in as
// they arrive, snapshots read it non-destructively.
type nodeState struct {
	col  *extract.Collapser
	acct *eventlog.Accounting
}

// New builds a Monitor over dir. Nothing is read until Run.
func New(dir string, opts ...Option) (*Monitor, error) {
	m := &Monitor{dir: dir, nodes: make(map[cluster.NodeID]*nodeState), dirty: true}
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("monitor: nil Option")
		}
		if err := opt(m); err != nil {
			return nil, err
		}
	}
	m.follow = append(m.follow, logstore.FollowWithStats(&m.stats))
	return m, nil
}

// Snapshot returns the latest published snapshot, nil before the first
// poll round completes. The returned value is immutable and never
// invalidated: callers may hold it as long as they like.
func (m *Monitor) Snapshot() *Snapshot { return m.snap.Load() }

// Stats exposes the live tail counters (atomics; lock-free reads).
func (m *Monitor) Stats() *logstore.FollowStats { return &m.stats }

// Run tails the directory until ctx is cancelled, publishing a fresh
// snapshot after every poll round that ingested anything (and after the
// first round regardless, so an empty directory still serves an empty
// study). It must be called exactly once; cancellation is a clean
// shutdown and returns nil, any other stream or rebuild error is fatal
// and returned.
func (m *Monitor) Run(ctx context.Context) error {
	for ev, err := range logstore.Follow(ctx, m.dir, m.follow...) {
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return nil
			}
			return err
		}
		switch ev.Kind {
		case stream.KindRecord:
			m.ingest(ev.Record)
		case stream.KindReset:
			m.reset(ev.Record.Host)
		case stream.KindSync:
			if !m.dirty {
				continue
			}
			if err := m.publish(ctx); err != nil {
				if errors.Is(err, context.Canceled) {
					return nil
				}
				return err
			}
			m.dirty = false
		}
	}
	return nil
}

// ingest folds one record into its node's state. Records are keyed by
// their host= field — under the store's one-file-per-node layout this is
// exactly the per-file state the one-shot loader keeps (DESIGN.md §13).
func (m *Monitor) ingest(rec eventlog.Record) {
	ns, ok := m.nodes[rec.Host]
	if !ok {
		ns = &nodeState{col: extract.NewCollapser(), acct: eventlog.NewAccounting()}
		m.nodes[rec.Host] = ns
		i := sort.Search(len(m.order), func(i int) bool {
			return compareNodes(m.order[i], rec.Host) >= 0
		})
		m.order = append(m.order, cluster.NodeID{})
		copy(m.order[i+1:], m.order[i:])
		m.order[i] = rec.Host
	}
	ns.acct.Observe(rec)
	ns.col.Observe(rec)
	m.dirty = true
}

// reset discards one node's accumulated state: its backing file was
// truncated, rotated or removed (stream.KindReset), so everything folded
// from it no longer reflects disk. The file's current content follows as
// fresh records — without the discard those re-delivered lines would be
// double-counted and the quiescence equivalence would break.
func (m *Monitor) reset(host cluster.NodeID) {
	if _, ok := m.nodes[host]; !ok {
		return
	}
	delete(m.nodes, host)
	i := sort.Search(len(m.order), func(i int) bool {
		return compareNodes(m.order[i], host) >= 0
	})
	m.order = append(m.order[:i], m.order[i+1:]...)
	m.dirty = true
}

// compareNodes orders nodes the way sorted file paths do: FileName
// zero-pads both coordinates, so lexicographic file order is (Blade, SoC)
// order — the property that makes the snapshot's merge identical to the
// one-shot loader's.
func compareNodes(a, b cluster.NodeID) int {
	if a.Blade != b.Blade {
		if a.Blade < b.Blade {
			return -1
		}
		return 1
	}
	switch {
	case a.SoC < b.SoC:
		return -1
	case a.SoC > b.SoC:
		return 1
	}
	return 0
}

// publish rebuilds the Study from the per-node state and swaps it in as
// the new epoch.
func (m *Monitor) publish(ctx context.Context) error {
	study, err := m.rebuild(ctx)
	if err != nil {
		return err
	}
	m.epoch++
	snap := newSnapshot(m.epoch, study, &m.stats)
	m.snap.Store(snap)
	return nil
}

// rebuild re-establishes the canonical global order and streams it
// through core.Analyze on the one-shot loader's own code: each node's
// non-destructive snapshots go through logstore.Finalize, in node order,
// and the resulting logstore.Parts is the Source — so ingest resumes
// untouched afterwards.
func (m *Monitor) rebuild(ctx context.Context) (*core.Study, error) {
	parts := make(logstore.Parts, 0, len(m.order))
	for _, id := range m.order {
		ns := m.nodes[id]
		runs, raw := ns.col.Snapshot()
		parts = append(parts, logstore.Finalize(runs, raw, ns.acct.Snapshot(nil)))
	}
	var opts []core.Option
	if m.controller != "" {
		opts = append(opts, core.WithController(m.controller))
	}
	return core.Analyze(ctx, parts, opts...)
}
