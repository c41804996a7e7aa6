package faultstore

import (
	"context"
	"fmt"
	"iter"
	"path/filepath"
	"sync/atomic"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/iofault"
	"unprotected/internal/stream"
	"unprotected/internal/timebase"
)

// Store is an opened fault store: the decoded manifest plus the I/O
// accounting a query leaves behind. Opening reads only the manifest;
// segment files are touched first when a query needs them.
type Store struct {
	dir    string
	man    *manifest
	fs     iofault.FS
	opened atomic.Int64
	pruned atomic.Int64
}

// StoreOption configures Open (and Export, which opens a store).
type StoreOption func(*Store) error

// WithStoreFS routes every I/O operation of the opened store — the
// manifest read and all segment reads — through fsys (default: the OS
// passthrough).
func WithStoreFS(fsys iofault.FS) StoreOption {
	return func(s *Store) error {
		if fsys == nil {
			return fmt.Errorf("faultstore: nil FS")
		}
		s.fs = fsys
		return nil
	}
}

// Open reads the manifest of the store at dir.
func Open(dir string, opts ...StoreOption) (*Store, error) {
	s := &Store{dir: dir, fs: iofault.OS}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	man, err := readManifest(context.Background(), s.fs, dir)
	if err != nil {
		return nil, err
	}
	s.man = man
	return s, nil
}

// Segments reports how many segments the manifest names.
func (s *Store) Segments() int { return len(s.man.segs) }

// SegmentsOpened counts the segment files queries on this Store actually
// read; SegmentsPruned counts the ones the manifest index ruled out
// before any I/O. Together they are the pruning effectiveness metric the
// regression tests assert on. Both accumulate over the Store's lifetime.
func (s *Store) SegmentsOpened() int64 { return s.opened.Load() }

// SegmentsPruned counts index-skipped segments; see SegmentsOpened.
func (s *Store) SegmentsPruned() int64 { return s.pruned.Load() }

// Query restricts what a store read delivers. The zero value delivers
// everything.
type Query struct {
	// Nodes, when non-empty, keeps only faults and sessions of these
	// nodes. Segments whose index node set is disjoint are never opened.
	Nodes []cluster.NodeID
	// HasRange enables the [From, To) half-open time filter over fault
	// first-observation times and session start times. Segments whose
	// index bounds fall outside are never opened.
	HasRange bool
	From, To timebase.T
	// Workers bounds the segment decode pool, a stream.Collect (0 selects
	// GOMAXPROCS).
	Workers int
	// Degraded turns per-segment read and decode failures from hard
	// errors into skips: the query delivers everything that survives,
	// and each skipped segment's diagnostics land in Health (when set).
	// Strict hard-error remains the default — a reliability study must
	// opt in to half-trusting its own storage, never drift into it.
	Degraded bool
	// Health, when non-nil under Degraded, collects the per-segment
	// diagnostics of everything the query had to skip.
	Health *Health
}

// matchSeg reports whether the index entry can contain matching records.
func (q *Query) matchSeg(e *segMeta, set map[cluster.NodeID]bool) bool {
	if q.HasRange && (e.maxAt < q.From || e.minAt >= q.To) {
		return false
	}
	if set != nil {
		for _, id := range e.nodes {
			if set[id] {
				return true
			}
		}
		return false
	}
	return true
}

func (q *Query) matchAt(t timebase.T) bool {
	return !q.HasRange || (t >= q.From && t < q.To)
}

// nodeSet builds the lookup set, nil when the query has no node subset.
func (q *Query) nodeSet() map[cluster.NodeID]bool {
	if len(q.Nodes) == 0 {
		return nil
	}
	set := make(map[cluster.NodeID]bool, len(q.Nodes))
	for _, id := range q.Nodes {
		set[id] = true
	}
	return set
}

// readSegmentFile reads one segment through iofault.ReadFile, which
// holds a descriptor slot only for the read and retries a transient
// error under ctx, and decodes the in-memory image. Decode failures are
// deterministic and never retried.
func readSegmentFile(ctx context.Context, fsys iofault.FS, path string) (*segPayload, error) {
	data, err := iofault.ReadFile(ctx, fsys, path)
	if err != nil {
		return nil, fmt.Errorf("faultstore: %w", err)
	}
	return decodeSegment(data)
}

// Events reads the store as the standard stream contract: a stats
// prologue sized to exactly what the query delivers, every matching
// fault in extract.Compare order, then every matching session in
// eventlog.CompareSessions order. It is Parts followed by stream.Deliver,
// the shared block delivery layer. Cancelling ctx winds the pool down and
// yields a final (zero Event, ctx.Err()) pair, leak-free, exactly like
// the other sources.
func (s *Store) Events(ctx context.Context, q Query) iter.Seq2[stream.Event, error] {
	return func(yield func(stream.Event, error) bool) {
		p, err := s.Parts(ctx, q)
		if err != nil {
			yield(stream.Event{}, err)
			return
		}
		stream.Deliver(ctx, yield, p.Stats, p.Faults, p.Sessions)
	}
}

// decoded is one segment's filtered payload.
type decoded struct {
	faults   []extract.Fault
	sessions []eventlog.Session
}

// Parts prunes, decodes and filters the matching segments and returns
// their sorted streams, one per segment in manifest order, plus the exact
// stats of what survived the predicates. Matching segments are decoded on
// stream.Collect, each read under iofault's open rule; segments the
// index rules out are never opened, and once a segment fails a strict
// query starts no later one. A node's faults may span segments — additive
// ingests write one generation each — so only a merge of the fault
// streams puts a simultaneity group together.
func (s *Store) Parts(ctx context.Context, q Query) (stream.Parts, error) {
	set := q.nodeSet()
	var matched []*segMeta
	for i := range s.man.segs {
		if q.matchSeg(&s.man.segs[i], set) {
			matched = append(matched, &s.man.segs[i])
		} else {
			s.pruned.Add(1)
		}
	}

	segs, err := stream.Collect(ctx, len(matched), q.Workers, func(i int) (decoded, error) {
		e := matched[i]
		p, err := readSegmentFile(ctx, s.fs, filepath.Join(s.dir, e.name))
		s.opened.Add(1)
		switch {
		case err == nil:
			return decoded{faults: filterFaults(p.faults, &q, set), sessions: filterSessions(p.sessions, &q, set)}, nil
		case q.Degraded && ctx.Err() == nil:
			// Degraded read: the segment is skipped, not fatal. Its
			// diagnostics — and the index's account of what was lost —
			// go to the health report.
			q.Health.record(SegmentError{
				Segment:  e.name,
				Err:      err,
				Faults:   e.nFaults,
				Sessions: e.nSessions,
			})
			return decoded{}, nil
		}
		return decoded{}, fmt.Errorf("%s: %w", e.name, err)
	})
	if err != nil {
		return stream.Parts{}, err
	}

	p := stream.Parts{
		Stats:    &stream.Stats{RawLogsByNode: make(map[cluster.NodeID]int64)},
		Faults:   make([][]extract.Fault, 0, len(segs)),
		Sessions: make([][]eventlog.Session, 0, len(segs)),
	}
	for i := range segs {
		seg := &segs[i]
		if len(seg.faults) > 0 {
			p.Faults = append(p.Faults, seg.faults)
			p.Stats.Faults += len(seg.faults)
			for j := range seg.faults {
				p.Stats.RawLogs += int64(seg.faults[j].Logs)
				p.Stats.RawLogsByNode[seg.faults[j].Node] += int64(seg.faults[j].Logs)
			}
		}
		if len(seg.sessions) > 0 {
			p.Sessions = append(p.Sessions, seg.sessions)
			p.Stats.Sessions += len(seg.sessions)
		}
	}
	return p, nil
}

// filterFaults applies the exact per-record predicate in place (the
// slice is decode-owned).
func filterFaults(fs []extract.Fault, q *Query, set map[cluster.NodeID]bool) []extract.Fault {
	if set == nil && !q.HasRange {
		return fs
	}
	out := fs[:0]
	for i := range fs {
		if (set == nil || set[fs[i].Node]) && q.matchAt(fs[i].FirstAt) {
			out = append(out, fs[i])
		}
	}
	return out
}

// filterSessions is filterFaults for the session half.
func filterSessions(ss []eventlog.Session, q *Query, set map[cluster.NodeID]bool) []eventlog.Session {
	if set == nil && !q.HasRange {
		return ss
	}
	out := ss[:0]
	for i := range ss {
		if (set == nil || set[ss[i].Host]) && q.matchAt(ss[i].From) {
			out = append(out, ss[i])
		}
	}
	return out
}
