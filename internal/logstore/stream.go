package logstore

import (
	"context"
	"fmt"
	"io"
	"iter"
	"sort"
	"sync"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/iofault"
	"unprotected/internal/stream"
)

// Part is one node log's finalized, locally sorted contribution to a
// replay stream: its faults in extract.Compare order, its sessions in
// eventlog.CompareSessions order and its raw ERROR record count.
type Part struct {
	faults   []extract.Fault
	sessions []eventlog.Session
	rawLogs  int64
}

// Finalize is the per-node tail of the §II-C replay pipeline: it
// classifies runs into sorted faults and sorts sessions in place. The
// one-shot loader calls it on each file's Collapser.Close and
// Accounting.Finish; the live monitor calls it, for every node a round
// changed, on the collapser's non-destructive Snapshot and no sessions
// (it folds those straight from the accounting), which is what makes
// each published epoch's faults those of a replay of the directory as it
// stands (DESIGN.md §13.3).
func Finalize(runs []extract.RawRun, raw int64, sessions []eventlog.Session) Part {
	p := Part{faults: extract.Faults(runs), sessions: sessions, rawLogs: raw}
	extract.SortFaults(p.faults)
	sort.Slice(p.sessions, func(i, j int) bool {
		return eventlog.CompareSessions(&p.sessions[i], &p.sessions[j]) < 0
	})
	return p
}

// Faults returns the part's faults, in extract.Compare order.
func (p Part) Faults() []extract.Fault { return p.faults }

// Sessions returns the part's sessions, in eventlog.CompareSessions order.
func (p Part) Sessions() []eventlog.Session { return p.sessions }

// Events reads every node file in dir and yields the extracted
// dataset as an iterator honouring the internal/stream contract,
// mirroring the campaign engine: it is Parts followed by stream.Deliver,
// which interleaves the per-node streams into a stats prologue, faults in
// extract.Compare order and sessions in eventlog.CompareSessions order.
// The merged dataset is never materialized here.
//
// Output is byte-identical for any worker count: per-file work is
// independent, both comparators are total orders, and the merge consumes
// streams in file order, so scheduling can not reorder anything.
// Cancelling ctx aborts the replay: unread files are skipped, and the pool
// exits before the iterator yields its final (zero Event, ctx.Err())
// pair, so an abandoned replay leaks no goroutines. By the first yield
// the pool has already wound down, so breaking out of the range releases
// everything immediately. Delivery itself performs no per-event
// allocation.
//
// A core.Logs source's Events calls Parts and stream.Deliver itself, so
// this iterator serves only the benchmark harness (bench/) and the tests.
func Events(ctx context.Context, dir string, workers int, opts ...Option) iter.Seq2[stream.Event, error] {
	return func(yield func(stream.Event, error) bool) {
		p, err := Parts(ctx, dir, workers, opts...)
		if err != nil {
			yield(stream.Event{}, err)
			return
		}
		stream.Deliver(ctx, yield, p.Stats, p.Faults, p.Sessions)
	}
}

// Parts reads every node file in dir on a stream.Collect pool and
// returns the per-node sorted streams, in file order, with the stats
// they fold to: each worker collapses one file and Finalizes it, so §II-C
// extraction parallelizes across files.
//
// workers bounds the pool (0 or negative means GOMAXPROCS). A transient
// I/O error is retried (iofault.Open). A corrupt or unreadable file, or
// one holding another node's record, fails the replay with the
// lowest-indexed failing file's error, and once it fails the pool starts
// no later file. Cancelling ctx skips the unread files and returns
// ctx.Err() once the pool has exited. WithFS routes every file operation
// through an iofault.FS.
func Parts(ctx context.Context, dir string, workers int, opts ...Option) (stream.Parts, error) {
	o, err := resolve(opts)
	if err != nil {
		return stream.Parts{}, fmt.Errorf("logstore: %w", err)
	}
	files, err := listNodeFiles(ctx, o.fsys, dir)
	if err != nil {
		return stream.Parts{}, err
	}
	parts, err := stream.Collect(ctx, len(files), workers, func(i int) (Part, error) {
		return loadNodeFile(ctx, o.fsys, files[i])
	})
	if err != nil {
		return stream.Parts{}, err
	}
	p := stream.Parts{
		Stats:    &stream.Stats{RawLogsByNode: make(map[cluster.NodeID]int64)},
		Faults:   make([][]extract.Fault, 0, len(parts)),
		Sessions: make([][]eventlog.Session, 0, len(parts)),
	}
	for _, part := range parts {
		p.Stats.Faults += len(part.faults)
		p.Stats.Sessions += len(part.sessions)
		p.Stats.RawLogs += part.rawLogs
		// Every ERROR record lands in exactly one run, so Σ Logs over a
		// part's faults is its raw volume; under the node rule every
		// fault of a part is its file's node's.
		for i := range part.faults {
			p.Stats.RawLogsByNode[part.faults[i].Node] += int64(part.faults[i].Logs)
		}
		if len(part.faults) > 0 {
			p.Faults = append(p.Faults, part.faults)
		}
		if len(part.sessions) > 0 {
			p.Sessions = append(p.Sessions, part.sessions)
		}
	}
	return p, nil
}

// loaderPool recycles loadNodeFile's per-file state across every file
// of a directory and across directories: a collapser, with the
// struct-of-arrays run columns and the open-run slab it carries, and the
// read buffer eventlog.Lines parses out of — 64 KiB, grown only to fit a
// line of up to eventlog.MaxLine.
var loaderPool = sync.Pool{New: func() any {
	return &loader{extract.NewCollapser(), make([]byte, 64*1024)}
}}

// loader is one pooled unit of loadNodeFile's state. Its Reset is the
// collapser's: the buffer's stale bytes are never read.
type loader struct {
	*extract.Collapser
	buf []byte
}

// loadNodeFile runs one file through the §II-C pipeline on the worker:
// it opens the file through iofault.Open, collapses records into runs
// and sessions as lines cuts them from the file, chunk by chunk, then
// Finalize classifies and sorts the node locally so the caller only
// merges. An unfinished final line is no record, and a record of
// another node fails the file, as for the follower.
func loadNodeFile(ctx context.Context, fsys iofault.FS, path string) (Part, error) {
	node, _ := nodeOfFile(path)
	f, err := iofault.Open(ctx, fsys, path)
	if err != nil {
		return Part{}, fmt.Errorf("logstore: %w", err)
	}
	defer f.Close()
	ld := loaderPool.Get().(*loader)
	defer func() {
		// Close already resets on the success path; Reset again is a no-op
		// there and cleans up after mid-file read errors.
		ld.Reset()
		loaderPool.Put(ld)
	}()
	acct := eventlog.NewAccounting()
	visit := func(rec eventlog.Record) bool {
		acct.Observe(rec)
		ld.Observe(rec)
		return true
	}
	// ld.buf[:n] holds an unfinished line, the bytes after the last '\n'.
	line, n := 0, 0
	for {
		if n == len(ld.buf) {
			ld.buf = append(ld.buf, make([]byte, min(2*n, eventlog.MaxLine)-n)...)
		}
		rn, rerr := f.Read(ld.buf[n:])
		n += rn
		done, err := lines(ld.buf[:n], &line, node, visit)
		if err != nil {
			return Part{}, fmt.Errorf("logstore: %s: %w", path, err)
		}
		n = copy(ld.buf, ld.buf[done:n])
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return Part{}, fmt.Errorf("logstore: %s: %w", path, rerr)
		}
	}
	runs, raw := ld.Close()
	return Finalize(runs, raw, acct.Finish()), nil
}
