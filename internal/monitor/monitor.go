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
// Snapshots are rebuilt incrementally, touching only the nodes a round
// changed. Follow-mode delivers records in per-node arrival order, and a
// fault is not final while the next appended record can still extend its
// run, so the monitor keeps raw per-node state and, for every node that
// changed, re-finalizes it the way the one-shot loader finalizes a file
// (logstore.Finalize) and folds it into a per-node partial of the figure
// accumulators. The partials are exact, so their Merge in any order gives
// the figures one bundle fed the canonical stream gives. The canonical
// dataset is spliced: the previous epoch's, less the changed nodes'
// elements, merged with their fresh parts. At every epoch the snapshot
// is therefore byte-identical to a one-shot Analyze over the same
// directory — the equivalence DESIGN.md §13.3 argues and
// TestMonitorQuiescenceEquivalence pins epoch by epoch.
package monitor

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"unprotected/internal/analysis"
	"unprotected/internal/cluster"
	"unprotected/internal/core"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
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
		m.controllerID = cluster.NodeID{}
		if node != "" {
			id, err := cluster.ParseNodeID(node)
			if err != nil {
				return err
			}
			m.controllerID = id
		}
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
	dir          string
	controllerID cluster.NodeID // zero: no exclusion
	follow       []logstore.FollowOption
	stats        logstore.FollowStats

	// snap is the epoch pointer: Run stores, everyone else loads. Nil
	// until the first poll round completes.
	snap atomic.Pointer[Snapshot]

	// Ingest state below is owned exclusively by the Run goroutine.
	nodes map[cluster.NodeID]*nodeState
	order []cluster.NodeID // sorted keys of nodes
	// isDirty marks, by node index, the nodes ingested, reset, added or
	// removed since the last publish, and dirty says whether any is (or
	// no round has published yet). Record hosts are parsed and
	// range-checked, so every index is below cluster.TotalNodes.
	dirty   bool
	isDirty [cluster.TotalNodes]bool
	epoch   int64
}

// nodeState is one node's incremental §II-C pipeline: records fold in as
// they arrive, snapshots read it non-destructively. The fields below the
// pipeline are the node's figures as of the last publish that found it
// dirty.
type nodeState struct {
	col  *extract.Collapser
	acct *eventlog.Accounting

	part *analysis.Accumulators // the node's figure partial, unsealed
	// rawLogs counts the node's ERROR records; logs sums its faults'
	// collapsed record counts, its entry in Dataset.RawLogsByNode.
	rawLogs, logs  int64
	faults         int
	sessions, open int
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
// snapshot after every poll round that changed anything (and after the
// first round regardless, so an empty directory still serves an empty
// study). It must be called exactly once; cancellation is a clean
// shutdown and returns nil, any stream error is fatal and returned.
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
			if m.dirty {
				m.publish()
			}
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
	m.markDirty(rec.Host)
}

// markDirty queues node for the next publish.
func (m *Monitor) markDirty(node cluster.NodeID) {
	m.isDirty[node.Index()] = true
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
	m.markDirty(host)
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
func (m *Monitor) publish() {
	study := m.rebuild()
	m.epoch++
	m.snap.Store(newSnapshot(m.epoch, study, m.verdicts(study.Dataset.RawLogs), &m.stats))
}

// rebuild is the one path from the per-node state to a Study, the
// catch-up round included (there every node is dirty and the previous
// dataset empty). It re-finalizes each dirty node through the one-shot
// loader's own per-node tail — the non-destructive snapshots of its
// collapser and accounting go through logstore.Finalize, so ingest resumes
// untouched — and rebuilds the node's partial from the part. The Study's
// figures are the Merge of every node's partial; its dataset is the
// previous epoch's with the dirty nodes' parts spliced in.
func (m *Monitor) rebuild() *core.Study {
	prev := &analysis.Dataset{}
	if s := m.snap.Load(); s != nil {
		prev = s.Study.Dataset
	}
	var exclude []cluster.NodeID
	if m.controllerID != (cluster.NodeID{}) {
		exclude = append(exclude, m.controllerID)
	}
	var freshFaults [cluster.TotalNodes][]extract.Fault
	var freshSessions [cluster.TotalNodes][]eventlog.Session
	for _, id := range m.order {
		i := id.Index()
		if !m.isDirty[i] {
			continue
		}
		ns := m.nodes[id]
		runs, raw := ns.col.Snapshot()
		part := logstore.Finalize(runs, raw, ns.acct.Snapshot(nil))
		ns.refresh(part, raw, exclude)
		freshFaults[i], freshSessions[i] = part.Faults(), part.Sessions()
	}

	figs := analysis.NewAccumulators(exclude...)
	ds := &analysis.Dataset{
		RawLogsByNode:  make(map[cluster.NodeID]int64),
		Topo:           cluster.PaperTopology(),
		ControllerNode: m.controllerID,
	}
	var faults, sessions int
	for _, id := range m.order {
		ns := m.nodes[id]
		figs.Merge(ns.part)
		ds.RawLogs += ns.rawLogs
		if ns.faults > 0 {
			ds.RawLogsByNode[id] = ns.logs
		}
		faults += ns.faults
		sessions += ns.sessions
	}
	_ = figs.Finish() // never fails

	ds.Faults = splice(prev.Faults, &m.isDirty, &freshFaults, faults, faultNode, extract.Key, extract.Compare)
	ds.Sessions = splice(prev.Sessions, &m.isDirty, &freshSessions, sessions, sessionNode, eventlog.SessionKey, eventlog.CompareSessions)
	m.isDirty, m.dirty = [cluster.TotalNodes]bool{}, false
	return &core.Study{Dataset: ds, Figures: figs}
}

// refresh rebuilds the node's partial and counts from its finalized part.
func (ns *nodeState) refresh(part logstore.Part, raw int64, exclude []cluster.NodeID) {
	ns.part = analysis.NewAccumulators(exclude...)
	ns.rawLogs, ns.logs = raw, 0
	ns.faults, ns.sessions, ns.open = len(part.Faults()), len(part.Sessions()), 0
	for _, f := range part.Faults() {
		ns.part.ObserveFault(f)
		ns.logs += int64(f.Logs)
	}
	for _, s := range part.Sessions() {
		ns.part.ObserveSession(s)
		if s.Truncated {
			ns.open++
		}
	}
}
