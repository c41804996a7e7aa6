package faultstore

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/iofault"
	"unprotected/internal/kway"
	"unprotected/internal/logstore"
	"unprotected/internal/stream"
	"unprotected/internal/timebase"
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

// WithIngestWorkers bounds the ingest's worker pool: the text-replay
// loader and then the segment build (0 selects GOMAXPROCS). The bytes
// written do not depend on it.
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

// cell is one (shard, window) cell's payload as sorted runs: each run is
// a sub-slice of a stream in canonical order.
type cell struct {
	faults   [][]extract.Fault
	sessions [][]eventlog.Session
}

// cells is the payload one Ingest or Compact writes, by (shard, window)
// cell.
type cells map[bucketKey]*cell

// plan cuts the sorted stream s wherever key, the cell of s[i], changes,
// and appends each piece, a sub-slice of s with no copy, to the list of
// runs that runs picks in the piece's cell. Planned stream by stream, in
// order, a cell's runs break ties as the streams' merge does, so merging
// them yields the cell's subsequence of that merge.
func plan[T any](out cells, s []T, key func(i int) bucketKey, runs func(*cell) *[][]T) {
	for lo := 0; lo < len(s); {
		k, hi := key(lo), lo+1
		for hi < len(s) && key(hi) == k {
			hi++
		}
		c, ok := out[k]
		if !ok {
			c = &cell{}
			out[k] = c
		}
		r := runs(c)
		*r = append(*r, s[lo:hi])
		lo = hi
	}
}

func faultRuns(c *cell) *[][]extract.Fault      { return &c.faults }
func sessionRuns(c *cell) *[][]eventlog.Session { return &c.sessions }

// Ingest reads the text log directory logDir through the replay loader's
// parts and writes its extracted dataset into the store at storeDir,
// creating the store if needed and appending a new segment generation if
// it already exists. plan cuts each node's sorted faults and sessions
// into runs by (shard, window) cell, and commit builds every cell's
// segment from its runs on the worker pool, so segments are born sorted
// without a sort or a store-wide merge of their own.
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
	man, err := readManifest(ctx, o.fsys, storeDir)
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

	p, err := logstore.Parts(ctx, logDir, o.workers, logstore.WithFS(o.fsys))
	if err != nil {
		return nil, err
	}
	cellOf := func(node cluster.NodeID, t timebase.T) bucketKey {
		return bucketKey{shardOf(node, o.shards), windowOf(t, o.windowSeconds)}
	}
	out := make(cells)
	for _, faults := range p.Faults {
		plan(out, faults, func(i int) bucketKey { return cellOf(faults[i].Node, faults[i].FirstAt) }, faultRuns)
	}
	for _, sessions := range p.Sessions {
		plan(out, sessions, func(i int) bucketKey { return cellOf(sessions[i].Host, sessions[i].From) }, sessionRuns)
	}
	stats := &IngestStats{Faults: p.Stats.Faults, Sessions: p.Stats.Sessions, RawLogs: p.Stats.RawLogs, Segments: len(out)}
	if stats.Bytes, err = commit(ctx, o.fsys, storeDir, man, gen, out, o.workers); err != nil {
		return nil, err
	}
	return stats, nil
}

// commit is the one write path of the store. It builds one segment per
// cell, the merge of the cell's runs, on a stream.Collect pool of
// workers (0 selects GOMAXPROCS), and empties each cell as its segment
// is built, so the streams the runs cut can be collected before the
// writes; a cancelled ctx stops the pool before anything is written.
// The calling goroutine then writes and fsyncs the segments in key order
// under generation gen, so the sequence of mutations does not depend on
// the worker count, appends their index entries to man and commits man.
// The manifest rename is the commit point. Until it lands every segment
// commit wrote is provisional, and a failure removes them again
// (best-effort — a crash also kills the cleanup, which is exactly the
// orphan case fsck exists for). It returns the bytes of the segments
// written.
func commit(ctx context.Context, fsys iofault.FS, dir string, man *manifest, gen uint32, out cells, workers int) (int64, error) {
	keys := make([]bucketKey, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareBucketKeys)
	type segment struct {
		meta segMeta
		data []byte
	}
	segs, err := stream.Collect(ctx, len(keys), workers, func(i int) (segment, error) {
		k, c := keys[i], out[keys[i]]
		faults := kway.Merge(c.faults, extract.Key, extract.Compare)
		sessions := kway.Merge(c.sessions, eventlog.SessionKey, eventlog.CompareSessions)
		*c = cell{}
		lo, hi := segBounds(faults, sessions)
		return segment{
			meta: segMeta{
				name: segmentName(k.shard, k.window, gen), shard: k.shard, window: k.window, gen: gen,
				nFaults: len(faults), nSessions: len(sessions),
				minAt: lo, maxAt: hi,
				nodes: nodeSetOf(faults, sessions),
			},
			data: encodeSegment(k.shard, k.window, faults, sessions),
		}, nil
	})
	if err != nil {
		return 0, err
	}
	var written []string
	var size int64
	for i := range segs {
		s := &segs[i]
		if err = writeSegment(fsys, filepath.Join(dir, s.meta.name), s.data); err != nil {
			break
		}
		written = append(written, s.meta.name)
		man.segs = append(man.segs, s.meta)
		size += int64(len(s.data))
		s.data = nil // hold no segment's bytes past its write
	}
	if err == nil {
		err = writeManifest(fsys, dir, man)
	}
	if err != nil && !errors.Is(err, errSyncAfterCommit) {
		for _, name := range written {
			fsys.Remove(filepath.Join(dir, name))
		}
	}
	return size, err
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

// writeSegment writes and fsyncs one encoded segment file. The fsync
// matters: the manifest rename is the commit point, and a manifest must
// never become durable while a segment it references can still evaporate
// from the page cache.
func writeSegment(fsys iofault.FS, path string, data []byte) error {
	if err := fsys.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("faultstore: %w", err)
	}
	if err := fsys.Sync(path); err != nil {
		return fmt.Errorf("faultstore: %w", err)
	}
	return nil
}

// readManifest loads the store index through iofault.ReadFile, which
// retries a transient error under ctx, and decodes it. A missing file
// returns fs.ErrNotExist so callers can distinguish "no store here" from
// corruption.
func readManifest(ctx context.Context, fsys iofault.FS, dir string) (*manifest, error) {
	data, err := iofault.ReadFile(ctx, fsys, filepath.Join(dir, ManifestName))
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

// Compact rewrites the store. Every segment is decoded on a pool of
// GOMAXPROCS workers, the fault streams of all of them are k-way merged
// back into the canonical order, runs that ingest-batch boundaries split
// in two are re-collapsed (same node, address, expected and actual word,
// next run starting within the §II-C gap of the previous run's end, and
// — the batch-boundary signature — coming from a different ingest
// generation than the run it continues), and every fault returns to its
// segment's shard, a collapsed run to its head's. The merge is
// store-wide because ingests with different shard counts put one node's
// runs in different shards. plan then cuts that order, and each
// segment's sessions, which are never coalesced, into runs by (shard,
// window) cell — using the window length the manifest persists — and
// commit builds one segment per cell from its runs, on the same size of
// pool, under a single fresh generation the current manifest does not
// reference. No live segment file is ever overwritten, so the manifest
// swap at the end stays the commit point: a crash mid-compact leaves the
// old manifest pointing at the old, untouched files (plus unreferenced
// output orphans that a re-run simply overwrites). After the swap the
// superseded segment files are deleted (best-effort — queries only open
// what the manifest names).
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
	ctx := context.Background()
	man, err := readManifest(ctx, o.fsys, dir)
	if err != nil {
		return nil, err
	}
	windowSeconds := man.windowSeconds
	if windowSeconds <= 0 {
		windowSeconds = int64(DefaultWindow / time.Second)
	}
	stats := &CompactStats{SegmentsBefore: len(man.segs)}
	// Every segment is read, on the pool, before any is written, so a
	// read error leaves nothing to clean up.
	segs, err := stream.Collect(ctx, len(man.segs), 0, func(i int) (*segPayload, error) {
		return readSegmentFile(ctx, o.fsys, filepath.Join(dir, man.segs[i].name))
	})
	if err != nil {
		return nil, err
	}
	out := make(cells)
	faults := make([][]genFault, 0, len(segs))
	for i, p := range segs {
		e := &man.segs[i]
		stats.FaultsBefore += e.nFaults
		gfs := make([]genFault, len(p.faults))
		for j, f := range p.faults {
			gfs[j] = genFault{gen: e.gen, shard: e.shard, Fault: f}
		}
		faults = append(faults, gfs)
		plan(out, p.sessions, func(j int) bucketKey {
			return bucketKey{e.shard, windowOf(p.sessions[j].From, windowSeconds)}
		}, sessionRuns)
	}
	merged := collapseRuns(kway.Merge(faults, genFaultKey, compareGenFaults))
	flat := make([]extract.Fault, len(merged))
	for i := range merged {
		flat[i] = merged[i].Fault
	}
	plan(out, flat, func(i int) bucketKey {
		return bucketKey{merged[i].shard, windowOf(merged[i].FirstAt, windowSeconds)}
	}, faultRuns)
	stats.FaultsAfter = len(merged)

	// All output segments share one generation, picked above every live
	// one so their names never collide with files the current manifest
	// references (the crash-consistency contract of the manifest swap).
	next := &manifest{windowSeconds: windowSeconds}
	if _, err := commit(ctx, o.fsys, dir, next, man.nextGen(), out, 0); err != nil {
		return nil, err
	}
	stats.SegmentsAfter = len(next.segs)
	// Superseded names can never collide with the output (its generation
	// is fresh), so every pre-compact segment is safe to delete after the
	// swap.
	for _, e := range man.segs {
		o.fsys.Remove(filepath.Join(dir, e.name))
	}
	return stats, nil
}

// genFault is a fault tagged with the generation and shard of the
// segment it was read from, so the compaction collapse can tell
// batch-split run halves (different generations) from deliberately
// separate same-key runs (same generation), and the compacted fault
// returns to its shard.
type genFault struct {
	gen, shard uint32
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
// temperature) and its head's shard stay, and the run adopts the
// continuation's generation so a third batch can extend it again.
// Same-generation neighbours are never merged: the original extraction
// already decided they are independent faults (pre-collapsed lines map
// to runs verbatim), and re-applying the gap heuristic to them would
// change the dataset. The result is re-sorted because a grown run's
// LastAt participates in the canonical order's tiebreaks.
func collapseRuns(faults []genFault) []genFault {
	type key struct {
		blade, soc int
		addr       uint32
	}
	open := make(map[key]int) // key -> index in out of the open run for that address
	out := make([]genFault, 0, len(faults))
	for _, f := range faults {
		k := key{f.Node.Blade, f.Node.SoC, uint32(f.Addr)}
		if i, ok := open[k]; ok {
			prev := &out[i]
			if f.gen != prev.gen && prev.Expected == f.Expected && prev.Actual == f.Actual &&
				f.FirstAt >= prev.LastAt && int64(f.FirstAt-prev.LastAt) <= extract.DefaultGap {
				prev.LastAt = max(prev.LastAt, f.LastAt)
				prev.Logs += f.Logs
				prev.gen = f.gen
				continue
			}
		}
		out = append(out, f)
		open[k] = len(out) - 1
	}
	sort.Slice(out, func(i, j int) bool { return compareGenFaults(&out[i], &out[j]) < 0 })
	return out
}
