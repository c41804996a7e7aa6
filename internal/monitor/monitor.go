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
// changed, and each byte of history is held once. Follow-mode delivers
// records in per-node arrival order, and a fault is not final while the
// next appended record can still extend its run, so the monitor keeps
// raw per-node state and, for every node that changed, re-finalizes its
// faults the way the one-shot loader finalizes a file (logstore.Finalize)
// into a per-node fault partial of the figure accumulators. A closed
// session is final, so a publish takes the sessions each changed node
// closed since the last one from its accounting, folds them once into the
// node's session partial and keeps them only in the published dataset;
// the node's open session is published as a truncated view, which adds
// nothing to a figure, and the next publish replaces it. The partials are
// exact, so their Merge in any order gives the figures one bundle fed the
// canonical stream gives. The canonical dataset is spliced: the faults
// are the previous epoch's, less the changed nodes', merged with their
// fresh parts; the sessions are the previous epoch's, less the reset
// nodes' and the replaced views, merged with the new closed sessions and
// views. At every epoch the snapshot is therefore byte-identical to a
// one-shot Analyze over the same directory — the equivalence DESIGN.md
// §13.3 argues and TestMonitorQuiescenceEquivalence pins epoch by epoch.
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
	// exclude lists the nodes every partial drops from the regimes: the
	// controller, if any.
	exclude []cluster.NodeID
	// isDirty marks, by node index, the nodes ingested, reset, added or
	// removed since the last publish, and dirty says whether any is (or
	// no round has published yet); wasReset marks the nodes reset since
	// the last publish, whose published sessions all go. Record hosts are
	// parsed and range-checked, so every index is below
	// cluster.TotalNodes.
	dirty    bool
	isDirty  [cluster.TotalNodes]bool
	wasReset [cluster.TotalNodes]bool
	epoch    int64
}

// nodeState is one node's incremental §II-C pipeline: records fold in as
// they arrive, and a publish reads the collapser non-destructively and
// takes the sessions the accounting closed, so between publishes the
// accounting holds only the node's open session. The fields below the
// pipeline are the node's figures as of the last publish that found it
// dirty.
type nodeState struct {
	col  *extract.Collapser
	acct *eventlog.Accounting

	// part is the node's fault partial, rebuilt by every publish that
	// finds the node dirty; sess is its session partial, which folds each
	// closed session once, at the publish that takes it. Both unsealed.
	part, sess *analysis.Accumulators
	// view is the node's open session as the last publish saw it, closed
	// as if truncated, if hasView: the one published session that a later
	// publish replaces.
	view    eventlog.Session
	hasView bool
	// rawLogs counts the node's ERROR records; logs sums its faults'
	// collapsed record counts, its entry in Dataset.RawLogsByNode.
	rawLogs, logs int64
	faults        int
	// sessions counts the node's published sessions and open the
	// truncated ones, the view included.
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
	if m.controllerID != (cluster.NodeID{}) {
		m.exclude = []cluster.NodeID{m.controllerID}
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
		ns = &nodeState{col: extract.NewCollapser(), acct: eventlog.NewAccounting(), sess: analysis.NewAccumulators(m.exclude...)}
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
	m.wasReset[host.Index()] = true
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
// dataset empty). Each dirty node re-finalizes its faults through the
// one-shot loader's own per-node tail — the collapser's non-destructive
// snapshot goes through logstore.Finalize, so ingest resumes untouched —
// and hands over the sessions it closed since the last publish, which
// refresh folds once. The Study's figures are the Merge of every node's
// two partials. Its faults are the previous epoch's with the dirty nodes'
// parts spliced in; its sessions are the previous epoch's less the reset
// nodes' and the replaced views, merged with the new closed sessions and
// views.
func (m *Monitor) rebuild() *core.Study {
	prev := &analysis.Dataset{}
	if s := m.snap.Load(); s != nil {
		prev = s.Study.Dataset
	}
	var freshFaults [cluster.TotalNodes][]extract.Fault
	var newSessions [cluster.TotalNodes][]eventlog.Session
	var staleViews []eventlog.Session
	for _, id := range m.order {
		i := id.Index()
		if !m.isDirty[i] {
			continue
		}
		ns := m.nodes[id]
		if ns.hasView {
			staleViews = append(staleViews, ns.view)
		}
		freshFaults[i], newSessions[i] = ns.refresh(m.exclude)
	}
	sort.Slice(staleViews, func(i, j int) bool {
		return eventlog.CompareSessions(&staleViews[i], &staleViews[j]) < 0
	})

	figs := analysis.NewAccumulators(m.exclude...)
	ds := &analysis.Dataset{
		RawLogsByNode:  make(map[cluster.NodeID]int64),
		Topo:           cluster.PaperTopology(),
		ControllerNode: m.controllerID,
	}
	var faults, sessions int
	for _, id := range m.order {
		ns := m.nodes[id]
		figs.Merge(ns.part)
		figs.Merge(ns.sess)
		ds.RawLogs += ns.rawLogs
		if ns.faults > 0 {
			ds.RawLogsByNode[id] = ns.logs
		}
		faults += ns.faults
		sessions += ns.sessions
	}
	_ = figs.Finish() // never fails

	ds.Faults = splice(prev.Faults, &m.isDirty, &freshFaults, faults, faultNode, extract.Key, extract.Compare)
	ds.Sessions = spliceSessions(prev.Sessions, &m.wasReset, staleViews, &newSessions, sessions)
	m.isDirty, m.wasReset, m.dirty = [cluster.TotalNodes]bool{}, [cluster.TotalNodes]bool{}, false
	return &core.Study{Dataset: ds, Figures: figs}
}

// refresh brings a dirty node up to date for a publish and returns its
// faults and its new sessions, each in canonical order. The fault partial
// and counts are rebuilt from the collapser's snapshot. The sessions the
// accounting closed since the last publish are taken from it and folded
// into the session partial once; with the open session's new view they
// are the node's new sessions. The view replaces the previous one, and
// since it is truncated it adds nothing to a figure.
func (ns *nodeState) refresh(exclude []cluster.NodeID) ([]extract.Fault, []eventlog.Session) {
	closed := ns.acct.TakeClosed()
	// Snapshot appends the open set, closed as if truncated: one session
	// at most, since the node's records all share its host.
	fresh := ns.acct.Snapshot(closed)
	if ns.hasView {
		ns.sessions, ns.open = ns.sessions-1, ns.open-1 // the view is replaced
	}
	if ns.hasView = len(fresh) > len(closed); ns.hasView {
		ns.view = fresh[len(closed)]
	}
	ns.sessions += len(fresh)
	for _, s := range fresh {
		ns.sess.ObserveSession(s) // a view is truncated: it adds nothing
		if s.Truncated {
			ns.open++
		}
	}

	runs, raw := ns.col.Snapshot()
	part := logstore.Finalize(runs, raw, fresh)
	ns.part = analysis.NewAccumulators(exclude...)
	ns.rawLogs, ns.logs, ns.faults = raw, 0, len(part.Faults())
	for _, f := range part.Faults() {
		ns.part.ObserveFault(f)
		ns.logs += int64(f.Logs)
	}
	return part.Faults(), part.Sessions()
}
