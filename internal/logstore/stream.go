package logstore

import (
	"context"
	"fmt"
	"io"
	"iter"
	"runtime"
	"sort"
	"sync"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/iofault"
	"unprotected/internal/stream"
)

// nodeStream is one log file's finalized, locally sorted contribution to
// the replay stream.
type nodeStream struct {
	faults   []extract.Fault
	sessions []eventlog.Session
	rawLogs  int64
	// rawByNode attributes raw volume by each run's host= field, not by
	// the file name — a file holding records of a foreign host (renamed or
	// concatenated logs) must credit the true host, matching fault
	// attribution.
	rawByNode map[cluster.NodeID]int64
	order     int // file index: the deterministic merge tiebreak
	err       error
}

// Events reads every node file under dir with a bounded worker pool and
// yields the extracted dataset as an iterator honouring the
// internal/stream contract, mirroring the campaign engine: each worker
// collapses and classifies one file (so §II-C extraction parallelizes
// across files) and sorts that node's faults and sessions locally, then
// stream.Deliver's k-way merges interleave the per-node streams into a
// stats prologue, faults in extract.Compare order and sessions in
// eventlog.CompareSessions order. The merged dataset is never
// materialized here.
//
// workers bounds the pool (0 or negative means GOMAXPROCS). Output is
// byte-identical for any worker count: per-file work is independent, both
// comparators are total orders, and the merge consumes streams sorted by
// file index, so scheduling can not reorder anything. WithFS routes every
// file operation through an iofault.FS.
//
// Cancelling ctx aborts the replay: unread files are skipped, the loader
// pool drains and exits before the iterator yields its final (zero Event,
// ctx.Err()) pair, so an abandoned replay leaks no goroutines. By the
// first yield the pool has already wound down, so breaking out of the
// range releases everything immediately. Delivery itself performs no
// per-event allocation.
func Events(ctx context.Context, dir string, workers int, opts ...Option) iter.Seq2[stream.Event, error] {
	return func(yield func(stream.Event, error) bool) {
		o, err := resolve(opts)
		if err != nil {
			yield(stream.Event{}, fmt.Errorf("logstore: %w", err))
			return
		}
		stats, streams, err := collect(ctx, dir, workers, o.fsys)
		if err != nil {
			yield(stream.Event{}, err)
			return
		}
		stream.Deliver(ctx, yield, stats, faultStreams(streams), sessionStreams(streams))
	}
}

// faultStreams projects the non-empty per-node fault slices in file order.
func faultStreams(streams []nodeStream) [][]extract.Fault {
	out := make([][]extract.Fault, 0, len(streams))
	for _, ns := range streams {
		if len(ns.faults) > 0 {
			out = append(out, ns.faults)
		}
	}
	return out
}

// sessionStreams projects the non-empty per-node session slices in file
// order.
func sessionStreams(streams []nodeStream) [][]eventlog.Session {
	out := make([][]eventlog.Session, 0, len(streams))
	for _, ns := range streams {
		if len(ns.sessions) > 0 {
			out = append(out, ns.sessions)
		}
	}
	return out
}

// collect runs the loader pool to completion (or cancellation) and
// gathers the per-file sorted streams, restored to file order, plus the
// scalar stats.
//
// Cancellation: the feeder stops handing out files, workers skip loading
// whatever is still queued, and the collector keeps draining until the
// results channel closes — so by the time ctx.Err() is returned every
// pool goroutine has exited.
func collect(ctx context.Context, dir string, workers int, fsys iofault.FS) (*stream.Stats, []nodeStream, error) {
	files, err := listNodeFiles(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(files) {
		workers = len(files)
	}

	type job struct {
		path  string
		order int
	}
	jobs := make(chan job)
	results := make(chan nodeStream, workers)
	done := ctx.Done()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // cancelled: drain the queue without loading
				}
				ns := loadNodeFile(fsys, j.path)
				ns.order = j.order
				select {
				case results <- ns:
				case <-done:
				}
			}
		}()
	}
	go func() {
	feed:
		for i, path := range files {
			select {
			case jobs <- job{path: path, order: i}:
			case <-done:
				break feed
			}
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	stats := &stream.Stats{RawLogsByNode: make(map[cluster.NodeID]int64)}
	var streams []nodeStream
	var firstErr *nodeStream
	for ns := range results {
		if ctx.Err() != nil {
			continue // cancelled: keep draining so the pool exits
		}
		if ns.err != nil {
			// Keep draining so the pool exits, but remember the failure of
			// the lowest-indexed file — deterministic no matter which
			// worker tripped first.
			if firstErr == nil || ns.order < firstErr.order {
				cp := ns
				firstErr = &cp
			}
			continue
		}
		stats.Faults += len(ns.faults)
		stats.Sessions += len(ns.sessions)
		stats.RawLogs += ns.rawLogs
		for id, n := range ns.rawByNode {
			stats.RawLogsByNode[id] += n
		}
		if len(ns.faults) > 0 || len(ns.sessions) > 0 {
			streams = append(streams, ns)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if firstErr != nil {
		return nil, nil, firstErr.err
	}
	// Streams arrive in worker-completion order; restore file order so the
	// merge's equal-key tiebreak (stream index) is deterministic even if a
	// directory holds two files for one node.
	sort.Slice(streams, func(i, j int) bool { return streams[i].order < streams[j].order })
	return stats, streams, nil
}

// collapserPool recycles per-file collapsers — and with them the
// struct-of-arrays run columns and the open-run slab they carry — across
// every file of a directory and across directories.
var collapserPool = sync.Pool{New: func() any { return extract.NewCollapser() }}

// loadNodeFile runs one file through the §II-C pipeline on the worker:
// records are collapsed into runs and sessions as they are read, then the
// node's faults and sessions are classified and sorted locally so the
// collector only merges.
func loadNodeFile(fsys iofault.FS, path string) nodeStream {
	var ns nodeStream
	f, err := fsys.Open(path)
	if err != nil {
		ns.err = fmt.Errorf("logstore: %w", err)
		return ns
	}
	defer f.Close()
	collapser := collapserPool.Get().(*extract.Collapser)
	defer func() {
		// Close already resets on the success path; Reset again is a no-op
		// there and cleans up after mid-file read errors.
		collapser.Reset()
		collapserPool.Put(collapser)
	}()
	acct := eventlog.NewAccounting()
	r := eventlog.NewReader(f)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			ns.err = fmt.Errorf("logstore: %s: %w", path, err)
			return ns
		}
		acct.Observe(rec)
		collapser.Observe(rec)
	}
	runs, raw := collapser.Close()
	ns.rawLogs = raw
	if len(runs) > 0 {
		// Every ERROR record lands in exactly one run, so Σ run.Logs == raw
		// and grouping by run.Node splits the volume by true host.
		ns.rawByNode = make(map[cluster.NodeID]int64, 1)
		for _, r := range runs {
			ns.rawByNode[r.Node] += int64(r.Logs)
		}
	}
	ns.faults = extract.Faults(runs)
	extract.SortFaults(ns.faults)
	ns.sessions = acct.Finish()
	sort.Slice(ns.sessions, func(i, j int) bool {
		return eventlog.CompareSessions(&ns.sessions[i], &ns.sessions[j]) < 0
	})
	return ns
}
