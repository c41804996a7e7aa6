package faultstore

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"time"

	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/fdlimit"
	"unprotected/internal/iofault"
	"unprotected/internal/kway"
	"unprotected/internal/logstore"
	"unprotected/internal/stream"
)

// IngestOption configures Ingest.
type IngestOption func(*ingestOptions) error

type ingestOptions struct {
	shards        int
	windowSeconds int64
	windowSet     bool // WithWindow given explicitly
	workers       int
	fsys          iofault.FS
}

// WithIngestFS routes every I/O operation of this ingest — reading the
// text logs, writing segments, committing the manifest — through fsys.
// The default is the OS passthrough; chaos tests inject an
// iofault.Injector here.
func WithIngestFS(fsys iofault.FS) IngestOption {
	return func(o *ingestOptions) error {
		if fsys == nil {
			return fmt.Errorf("faultstore: nil FS")
		}
		o.fsys = fsys
		return nil
	}
}

// WithShards sets the number of node-hash shards for the segments this
// ingest writes (default DefaultShards). An additive ingest into an
// existing store may use a different shard count; queries merge across
// generations regardless.
func WithShards(n int) IngestOption {
	return func(o *ingestOptions) error {
		if n < 1 {
			return fmt.Errorf("faultstore: shards must be >= 1, got %d", n)
		}
		o.shards = n
		return nil
	}
}

// WithWindow sets the time-partition length (default DefaultWindow,
// minimum one second). The window is a property of the store, persisted
// in the manifest at creation: an additive ingest into an existing store
// adopts the stored window, and an explicit WithWindow that contradicts
// it is an error — Compact re-buckets with the stored window, so one
// store never mixes partition granularities.
func WithWindow(d time.Duration) IngestOption {
	return func(o *ingestOptions) error {
		if d < time.Second {
			return fmt.Errorf("faultstore: window must be >= 1s, got %v", d)
		}
		o.windowSeconds = int64(d / time.Second)
		o.windowSet = true
		return nil
	}
}

// WithIngestWorkers bounds the text-replay loader pool feeding the
// ingest (0 selects GOMAXPROCS).
func WithIngestWorkers(n int) IngestOption {
	return func(o *ingestOptions) error {
		if n < 0 {
			return fmt.Errorf("faultstore: workers must be >= 0, got %d", n)
		}
		o.workers = n
		return nil
	}
}

// IngestStats summarizes one Ingest.
type IngestStats struct {
	Faults   int
	Sessions int
	RawLogs  int64
	Segments int   // segments this ingest wrote
	Bytes    int64 // segment bytes this ingest wrote
}

// bucketKey addresses one (shard, window) cell.
type bucketKey struct {
	shard  uint32
	window int64
}

// bucket accumulates one cell's payload during ingest.
type bucket struct {
	faults   []extract.Fault
	sessions []eventlog.Session
}

// Ingest streams the text log directory logDir through the replay
// pipeline and writes its extracted dataset into the store at storeDir,
// creating the store if needed and appending a new segment generation if
// it already exists. Faults arrive from the loader in canonical
// extract.Compare order and sessions in eventlog.CompareSessions order,
// so every bucket — an order-preserving subsequence — is born sorted and
// segments never need a sort of their own.
func Ingest(ctx context.Context, logDir, storeDir string, opts ...IngestOption) (*IngestStats, error) {
	o := ingestOptions{shards: DefaultShards, windowSeconds: int64(DefaultWindow / time.Second), fsys: iofault.OS}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if err := o.fsys.MkdirAll(storeDir, 0o755); err != nil {
		return nil, fmt.Errorf("faultstore: %w", err)
	}
	man, err := readManifest(o.fsys, storeDir)
	if errors.Is(err, fs.ErrNotExist) {
		man = &manifest{windowSeconds: o.windowSeconds}
	} else if err != nil {
		return nil, err
	} else if man.windowSeconds > 0 {
		// The stored window is authoritative for an existing store: adopt
		// it, and reject an explicit contradiction instead of silently
		// mixing partition granularities.
		if o.windowSet && o.windowSeconds != man.windowSeconds {
			return nil, fmt.Errorf("faultstore: store at %s was created with a %ds window, ingest requested %ds",
				storeDir, man.windowSeconds, o.windowSeconds)
		}
		o.windowSeconds = man.windowSeconds
	} else {
		man.windowSeconds = o.windowSeconds
	}
	gen := man.nextGen()

	stats := &IngestStats{}
	buckets := make(map[bucketKey]*bucket)
	cell := func(k bucketKey) *bucket {
		b, ok := buckets[k]
		if !ok {
			b = &bucket{}
			buckets[k] = b
		}
		return b
	}
	for ev, err := range logstore.Events(ctx, logDir, o.workers, logstore.WithFS(o.fsys)) {
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case stream.KindFault:
			f := ev.Fault
			k := bucketKey{shardOf(f.Node, o.shards), windowOf(f.FirstAt, o.windowSeconds)}
			b := cell(k)
			b.faults = append(b.faults, f)
			stats.Faults++
			stats.RawLogs += int64(f.Logs)
		case stream.KindSession:
			s := ev.Session
			k := bucketKey{shardOf(s.Host, o.shards), windowOf(s.From, o.windowSeconds)}
			b := cell(k)
			b.sessions = append(b.sessions, s)
			stats.Sessions++
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	keys := make([]bucketKey, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareBucketKeys)
	// Until the manifest rename commits, every segment this ingest wrote
	// is provisional: on any error the written files are deleted again
	// (best-effort — a crash also kills the cleanup, which is exactly the
	// orphan case fsck exists for).
	var written []string
	cleanup := func() {
		for _, name := range written {
			o.fsys.Remove(filepath.Join(storeDir, name))
		}
	}
	for _, k := range keys {
		b := buckets[k]
		meta, n, err := writeSegment(o.fsys, storeDir, k.shard, k.window, gen, b.faults, b.sessions)
		if err != nil {
			cleanup()
			return nil, err
		}
		written = append(written, meta.name)
		man.segs = append(man.segs, meta)
		stats.Segments++
		stats.Bytes += n
	}
	if err := writeManifest(o.fsys, storeDir, man); err != nil {
		if !errors.Is(err, errSyncAfterCommit) {
			cleanup()
		}
		return nil, err
	}
	return stats, nil
}

func compareBucketKeys(a, b bucketKey) int {
	switch {
	case a.shard != b.shard:
		return int(a.shard) - int(b.shard)
	case a.window < b.window:
		return -1
	case a.window > b.window:
		return 1
	default:
		return 0
	}
}

// writeSegment encodes, writes and fsyncs one segment file, returning
// its index entry and byte size. The fsync matters: the manifest rename
// is the commit point, and a manifest must never become durable while a
// segment it references can still evaporate from the page cache.
func writeSegment(fsys iofault.FS, dir string, shard uint32, window int64, gen uint32,
	faults []extract.Fault, sessions []eventlog.Session) (segMeta, int64, error) {
	name := segmentName(shard, window, gen)
	path := filepath.Join(dir, name)
	data := encodeSegment(shard, window, faults, sessions)
	if err := fsys.WriteFile(path, data, 0o644); err != nil {
		return segMeta{}, 0, fmt.Errorf("faultstore: %w", err)
	}
	if err := fsys.Sync(path); err != nil {
		return segMeta{}, 0, fmt.Errorf("faultstore: %w", err)
	}
	lo, hi := segBounds(faults, sessions)
	return segMeta{
		name: name, shard: shard, window: window, gen: gen,
		nFaults: len(faults), nSessions: len(sessions),
		minAt: lo, maxAt: hi,
		nodes: nodeSetOf(faults, sessions),
	}, int64(len(data)), nil
}

// readManifest loads and decodes the store index. A missing file returns
// fs.ErrNotExist so callers can distinguish "no store here" from
// corruption.
func readManifest(fsys iofault.FS, dir string) (*manifest, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("faultstore: %w", err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, err
	}
	m.sort()
	return m, nil
}

// writeManifest renders and atomically replaces the store index: the
// rename is the ingest/compact commit point, so a crash mid-write leaves
// the previous manifest — and with it a consistent store — in place.
//
// The fsync ordering is what makes the commit point real on a power
// cut, not just on a process kill:
//
//  1. Sync(dir) — the directory entries of every segment written (and
//     fsynced) before this call become durable, so a durable manifest
//     can never reference a segment whose entry was lost.
//  2. WriteFile + Sync of the tmp manifest — its bytes are durable
//     before the rename can expose them.
//  3. Rename(tmp, MANIFEST) — the atomic commit.
//  4. Sync(dir) — the rename itself becomes durable; until then a
//     power cut falls back to the previous manifest, which is fine:
//     pre-state and post-state are both consistent, a torn hybrid is
//     not reachable.
func writeManifest(fsys iofault.FS, dir string, m *manifest) error {
	m.sort()
	if err := fsys.Sync(dir); err != nil {
		return fmt.Errorf("faultstore: %w", err)
	}
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := fsys.WriteFile(tmp, encodeManifest(m), 0o644); err != nil {
		return fmt.Errorf("faultstore: %w", err)
	}
	if err := fsys.Sync(tmp); err != nil {
		return fmt.Errorf("faultstore: %w", err)
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		return fmt.Errorf("faultstore: %w", err)
	}
	if err := fsys.Sync(dir); err != nil {
		// The rename already committed: the new manifest is live and
		// references the segments just written. The caller must report
		// this (the commit may not survive a power cut) but must NOT
		// delete the referenced segments as if the operation had failed
		// before the commit — errSyncAfterCommit is the marker.
		return fmt.Errorf("%w: %w", errSyncAfterCommit, err)
	}
	return nil
}

// errSyncAfterCommit marks a writeManifest failure that happened after
// the rename commit point: the store now references the new segments, so
// error-path cleanup must leave them alone.
var errSyncAfterCommit = errors.New("faultstore: manifest committed, directory sync failed")

// Export renders the store back to a directory of per-node text log
// files — the interchange format — via logstore.Export. It merges the
// store's sorted parts into the canonical fault and session orders, which
// match the order the exporter's stable per-node sort preserves, so a
// store ingested from a canonically exported directory exports
// byte-identically (proved by the round-trip tests and
// FuzzSegmentRoundTrip).
func Export(ctx context.Context, storeDir, logDir string, workers int, opts ...StoreOption) error {
	s, err := Open(storeDir, opts...)
	if err != nil {
		return err
	}
	p, err := s.Parts(ctx, Query{Workers: workers})
	if err != nil {
		return err
	}
	faults := kway.Merge(p.Faults, extract.Key, extract.Compare)
	sessions := kway.Merge(p.Sessions, eventlog.SessionKey, eventlog.CompareSessions)
	if err := ctx.Err(); err != nil {
		return err
	}
	return logstore.Export(sessions, faults, logDir, logstore.WithFS(s.fs))
}

// CompactStats summarizes one Compact.
type CompactStats struct {
	SegmentsBefore, SegmentsAfter int
	FaultsBefore, FaultsAfter     int
}

// CompactOption configures Compact.
type CompactOption func(*compactOptions) error

type compactOptions struct {
	fsys iofault.FS
}

// WithCompactFS routes every I/O operation of this compaction through
// fsys (default: the OS passthrough).
func WithCompactFS(fsys iofault.FS) CompactOption {
	return func(o *compactOptions) error {
		if fsys == nil {
			return fmt.Errorf("faultstore: nil FS")
		}
		o.fsys = fsys
		return nil
	}
}

// Compact rewrites the store one shard at a time: every segment of the
// shard is decoded, the fault streams are k-way merged back into the
// canonical order, runs that ingest-batch boundaries split in two are
// re-collapsed (same node, address, expected and actual word, next run
// starting within the §II-C gap of the previous run's end, and — the
// batch-boundary signature — coming from a different ingest generation
// than the run it continues), and the shard is re-bucketed — using the
// window length the manifest persists — into one segment per window under
// a single fresh generation the current manifest does not reference. No
// live segment file is ever overwritten, so the manifest swap at the end
// stays the commit point: a crash mid-compact leaves the old manifest
// pointing at the old, untouched files (plus unreferenced output orphans
// that a re-run simply overwrites). Sessions are merged
// order-preservingly and never coalesced. After the swap the superseded
// segment files are deleted (best-effort — queries only open what the
// manifest names).
//
// The generation gate is what keeps compaction faithful to the replay
// contract: ingested faults are pre-collapsed lines, and the Collapser
// maps each of those to exactly one run verbatim, so two same-key faults
// within the gap inside ONE ingest were deliberately kept separate by the
// original extraction and must stay separate. Only across generations —
// where a single physical run was cut in two because the batches were
// ingested separately — is merging sound. Compacting a one-generation
// store (or re-compacting a compacted one) is therefore a pure re-bucket:
// FaultsBefore == FaultsAfter.
func Compact(dir string, opts ...CompactOption) (*CompactStats, error) {
	o := compactOptions{fsys: iofault.OS}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	man, err := readManifest(o.fsys, dir)
	if err != nil {
		return nil, err
	}
	stats := &CompactStats{SegmentsBefore: len(man.segs)}
	byShard := make(map[uint32][]segMeta)
	var shards []uint32
	windowSeconds := man.windowSeconds
	if windowSeconds <= 0 {
		windowSeconds = int64(DefaultWindow / time.Second)
	}
	// All output segments share one generation, picked above every live
	// one so their names never collide with files the current manifest
	// references (the crash-consistency contract of the manifest swap).
	outGen := man.nextGen()
	for _, e := range man.segs {
		if _, ok := byShard[e.shard]; !ok {
			shards = append(shards, e.shard)
		}
		byShard[e.shard] = append(byShard[e.shard], e)
		stats.FaultsBefore += e.nFaults
	}
	slices.Sort(shards)

	next := &manifest{windowSeconds: windowSeconds}
	var obsolete []string
	// Output segments are provisional until the manifest swap: on any
	// error the ones already written are deleted again (best-effort — a
	// crash also kills the cleanup, leaving orphans for fsck).
	var written []string
	cleanup := func() {
		for _, name := range written {
			o.fsys.Remove(filepath.Join(dir, name))
		}
	}
	for _, shard := range shards {
		segs := byShard[shard]
		faultStreams := make([][]genFault, 0, len(segs))
		sessionStreams := make([][]eventlog.Session, 0, len(segs))
		for _, e := range segs {
			p, err := readSegmentFile(context.Background(), o.fsys, filepath.Join(dir, e.name), fdlimit.Shared, iofault.DefaultRetry)
			if err != nil {
				cleanup()
				return nil, err
			}
			if len(p.faults) > 0 {
				gfs := make([]genFault, len(p.faults))
				for i, f := range p.faults {
					gfs[i] = genFault{gen: e.gen, Fault: f}
				}
				faultStreams = append(faultStreams, gfs)
			}
			if len(p.sessions) > 0 {
				sessionStreams = append(sessionStreams, p.sessions)
			}
			obsolete = append(obsolete, e.name)
		}
		faults := collapseRuns(kway.Merge(faultStreams, genFaultKey, compareGenFaults))
		sessions := kway.Merge(sessionStreams, eventlog.SessionKey, eventlog.CompareSessions)
		stats.FaultsAfter += len(faults)

		buckets := make(map[int64]*bucket)
		var windows []int64
		cell := func(w int64) *bucket {
			b, ok := buckets[w]
			if !ok {
				b = &bucket{}
				buckets[w] = b
				windows = append(windows, w)
			}
			return b
		}
		for _, f := range faults {
			b := cell(windowOf(f.FirstAt, windowSeconds))
			b.faults = append(b.faults, f)
		}
		for _, s := range sessions {
			b := cell(windowOf(s.From, windowSeconds))
			b.sessions = append(b.sessions, s)
		}
		slices.Sort(windows)
		for _, w := range windows {
			b := buckets[w]
			meta, _, err := writeSegment(o.fsys, dir, shard, w, outGen, b.faults, b.sessions)
			if err != nil {
				cleanup()
				return nil, err
			}
			written = append(written, meta.name)
			next.segs = append(next.segs, meta)
		}
	}
	stats.SegmentsAfter = len(next.segs)
	if err := writeManifest(o.fsys, dir, next); err != nil {
		if !errors.Is(err, errSyncAfterCommit) {
			cleanup()
		}
		return nil, err
	}
	// Superseded names can never collide with the output (outGen is fresh),
	// so every pre-compact segment is safe to delete after the swap.
	for _, name := range obsolete {
		o.fsys.Remove(filepath.Join(dir, name))
	}
	return stats, nil
}

// genFault is a fault tagged with the generation of the segment it was
// read from, so the compaction collapse can tell batch-split run halves
// (different generations) from deliberately separate same-key runs
// (same generation).
type genFault struct {
	gen uint32
	extract.Fault
}

func compareGenFaults(a, b *genFault) int {
	return extract.Compare(&a.Fault, &b.Fault)
}

// genFaultKey is compareGenFaults' leading key (extract.Key).
func genFaultKey(g *genFault) int64 { return extract.Key(&g.Fault) }

// collapseRuns re-applies the §II-C run adjacency across batch
// boundaries only: walking the canonical order, a fault whose (node,
// address, expected, actual) matches a still-open run, whose first
// observation falls within the collapse gap of that run's last one, AND
// whose source generation differs from the run's is folded in — the
// run's extent and raw-log weight grow, its identity (first observation,
// temperature) stays, and the run adopts the continuation's generation
// so a third batch can extend it again. Same-generation neighbours are
// never merged: the original extraction already decided they are
// independent faults (pre-collapsed lines map to runs verbatim), and
// re-applying the gap heuristic to them would change the dataset. The
// result is re-sorted because a grown run's LastAt participates in the
// canonical order's tiebreaks.
func collapseRuns(faults []genFault) []extract.Fault {
	type key struct {
		blade, soc int
		addr       uint32
	}
	type run struct {
		idx int // index in out
		gen uint32
	}
	open := make(map[key]run) // key -> the open run for that address
	out := make([]extract.Fault, 0, len(faults))
	for _, f := range faults {
		k := key{f.Node.Blade, f.Node.SoC, uint32(f.Addr)}
		if r, ok := open[k]; ok {
			prev := &out[r.idx]
			if f.gen != r.gen && prev.Expected == f.Expected && prev.Actual == f.Actual &&
				f.FirstAt >= prev.LastAt && int64(f.FirstAt-prev.LastAt) <= extract.DefaultGap {
				prev.LastAt = max(prev.LastAt, f.LastAt)
				prev.Logs += f.Logs
				open[k] = run{idx: r.idx, gen: f.gen}
				continue
			}
		}
		out = append(out, f.Fault)
		open[k] = run{idx: len(out) - 1, gen: f.gen}
	}
	extract.SortFaults(out)
	return out
}
