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
// closed since the last one from its accounting and folds them once into
// the node's session partial, which carries them into Figs 1–2 and the
// headline; then they are dropped, and the node keeps only its open
// session, which adds nothing to a figure. The partials are exact, so
// their Merge in any order gives the figures one bundle fed the canonical
// stream gives. The published dataset holds the faults, spliced: the
// previous epoch's, less the changed nodes', merged with their fresh
// parts; no report section reads sessions, so it holds none. At every
// epoch the snapshot's report is therefore byte-identical to a one-shot
// Analyze over the same directory — the equivalence DESIGN.md §13.3
// argues and TestMonitorQuiescenceEquivalence pins epoch by epoch.
package monitor

import (
	"context"
	"errors"
	"fmt"
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
	// nodes holds each node's state by node index, nil for a node with
	// none. Index order is (Blade, SoC) order, the order of the sorted
	// file names the one-shot loader merges its parts in, so every walk
	// of the table is in that order.
	nodes [cluster.TotalNodes]*nodeState
	// exclude lists the nodes every partial drops from the regimes: the
	// controller, if any.
	exclude []cluster.NodeID
	// isDirty marks, by node index, the nodes ingested, reset, added or
	// removed since the last publish, and dirty says whether any is (or
	// no round has published yet). Record hosts are parsed and
	// range-checked, so every index is below cluster.TotalNodes.
	dirty   bool
	isDirty [cluster.TotalNodes]bool
	epoch   int64
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
	// rawLogs counts the node's ERROR records; logs sums its faults'
	// collapsed record counts, its entry in Dataset.RawLogsByNode.
	rawLogs, logs int64
	faults        int
	// closed counts the sessions taken from the accounting, and truncated
	// those of them closed as truncated (START after START).
	closed, truncated int
}

// New builds a Monitor over dir. Nothing is read until Run.
func New(dir string, opts ...Option) (*Monitor, error) {
	m := &Monitor{dir: dir, dirty: true}
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
	i := rec.Host.Index()
	ns := m.nodes[i]
	if ns == nil {
		ns = &nodeState{col: extract.NewCollapser(), acct: eventlog.NewAccounting(), sess: analysis.NewAccumulators(m.exclude...)}
		m.nodes[i] = ns
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
	if i := host.Index(); m.nodes[i] != nil {
		m.nodes[i] = nil
		m.markDirty(host)
	}
}

// publish rebuilds the Study from the per-node state and swaps it in as
// the new epoch.
func (m *Monitor) publish() {
	study := m.rebuild()
	m.epoch++
	ds := study.Dataset
	m.snap.Store(newSnapshot(m.epoch, study, m.verdicts(ds.RawLogs, len(ds.Faults)), &m.stats))
}

// rebuild is the one path from the per-node state to a Study, the
// catch-up round included (there every node is dirty and the previous
// dataset empty). Each dirty node re-finalizes its faults through the
// one-shot loader's own per-node tail — the collapser's non-destructive
// snapshot goes through logstore.Finalize, so ingest resumes untouched —
// and folds the sessions it closed since the last publish. The Study's
// figures are the Merge of every node's two partials; its faults are the
// previous epoch's with the dirty nodes' parts spliced in.
func (m *Monitor) rebuild() *core.Study {
	var prev []extract.Fault
	if s := m.snap.Load(); s != nil {
		prev = s.Study.Dataset.Faults
	}
	var fresh [cluster.TotalNodes][]extract.Fault
	for i, ns := range &m.nodes {
		if ns != nil && m.isDirty[i] {
			fresh[i] = ns.refresh(m.exclude)
		}
	}

	figs := analysis.NewAccumulators(m.exclude...)
	ds := &analysis.Dataset{
		RawLogsByNode:  make(map[cluster.NodeID]int64),
		Topo:           cluster.PaperTopology(),
		ControllerNode: m.controllerID,
	}
	var faults int
	for i, ns := range &m.nodes {
		if ns == nil {
			continue
		}
		figs.Merge(ns.part)
		figs.Merge(ns.sess)
		ds.RawLogs += ns.rawLogs
		if ns.faults > 0 {
			ds.RawLogsByNode[cluster.NodeIDFromIndex(i)] = ns.logs
		}
		faults += ns.faults
	}
	_ = figs.Finish() // never fails

	ds.Faults = splice(prev, &m.isDirty, &fresh, faults, faultNode, extract.Key, extract.Compare)
	m.isDirty, m.dirty = [cluster.TotalNodes]bool{}, false
	return &core.Study{Dataset: ds, Figures: figs}
}

// refresh brings a dirty node up to date for a publish and returns its
// faults in canonical order. The sessions the accounting closed since the
// last publish are taken from it, counted and folded into the session
// partial once. The fault partial and counts are rebuilt from the
// collapser's snapshot.
func (ns *nodeState) refresh(exclude []cluster.NodeID) []extract.Fault {
	closed := ns.acct.TakeClosed()
	ns.closed += len(closed)
	for _, s := range closed {
		ns.sess.ObserveSession(s)
		if s.Truncated {
			ns.truncated++
		}
	}

	runs, raw := ns.col.Snapshot()
	part := logstore.Finalize(runs, raw, nil)
	ns.part = analysis.NewAccumulators(exclude...)
	ns.rawLogs, ns.logs, ns.faults = raw, 0, len(part.Faults())
	for _, f := range part.Faults() {
		ns.part.ObserveFault(f)
		ns.logs += int64(f.Logs)
	}
	return part.Faults()
}
