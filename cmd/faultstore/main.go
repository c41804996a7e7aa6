// Command faultstore manages the sharded, time-partitioned binary fault
// store. Text log directories stay the interchange format; the store is
// the query-efficient form: a manifest index over fixed-layout columnar
// segments that node-subset and time-range queries prune before any I/O.
//
// Usage:
//
//	faultstore ingest  [-shards N] [-window DUR] [-workers N] LOGDIR STOREDIR
//	faultstore export  [-workers N] STOREDIR LOGDIR
//	faultstore compact STOREDIR
//	faultstore query   [-nodes LIST] [-from TIME] [-to TIME] [-workers N] STOREDIR
//	faultstore fsck    [-repair] STOREDIR
//
// ingest streams a directory of per-node text logs through the replay
// pipeline into the store, appending a new segment generation if the
// store already exists. export renders the store back to text logs —
// for a store ingested from a canonically exported directory the output
// is byte-identical to the input. compact merges segment generations,
// re-collapses runs split across ingest batches and rewrites one
// segment per (shard, window). query prints matching faults as
// canonical ERROR log lines on stdout and a summary — including how
// many segments the index pruned without opening — on stderr.
//
// fsck verifies the store: every manifest-referenced segment must read,
// pass its CRC and agree with its index entry, and no unreferenced
// segment or stranded MANIFEST.tmp may be left on disk (the litter of a
// crashed pre-commit ingest or compact). With -repair, corrupt segments
// are moved into quarantine/ and dropped from the manifest, and orphans
// are deleted; the exit status reflects the store's state after repair.
//
// Times accept RFC 3339 ("2015-06-01T00:00:00Z") or a plain date
// ("2015-06-01", midnight UTC). Nodes are "blade-SoC" IDs, e.g. "02-04".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/faultstore"
	"unprotected/internal/logstore"
	"unprotected/internal/stream"
	"unprotected/internal/timebase"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	switch os.Args[1] {
	case "ingest":
		err = runIngest(ctx, os.Args[2:])
	case "export":
		err = runExport(ctx, os.Args[2:])
	case "compact":
		err = runCompact(os.Args[2:])
	case "query":
		err = runQuery(ctx, os.Args[2:])
	case "fsck":
		err = runFsck(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultstore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  faultstore ingest  [-shards N] [-window DUR] [-workers N] LOGDIR STOREDIR
  faultstore export  [-workers N] STOREDIR LOGDIR
  faultstore compact STOREDIR
  faultstore query   [-nodes LIST] [-from TIME] [-to TIME] [-workers N] STOREDIR
  faultstore fsck    [-repair] STOREDIR`)
	os.Exit(2)
}

func runIngest(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	shards := fs.Int("shards", faultstore.DefaultShards, "node-hash shard count")
	window := fs.Duration("window", faultstore.DefaultWindow, "time-partition window length (fixed at store creation)")
	workers := fs.Int("workers", 0, "loader and segment-build worker pool size (0 = GOMAXPROCS)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	opts := []faultstore.IngestOption{
		faultstore.WithShards(*shards), faultstore.WithIngestWorkers(*workers),
	}
	// Forward -window only when given: an explicit WithWindow must match
	// the window persisted in an existing store's manifest, while an
	// additive ingest without the flag adopts the stored window.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "window" {
			opts = append(opts, faultstore.WithWindow(*window))
		}
	})
	stats, err := faultstore.Ingest(ctx, fs.Arg(0), fs.Arg(1), opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ingested %d faults, %d sessions (%d raw logs) into %d segments (%d bytes)\n",
		stats.Faults, stats.Sessions, stats.RawLogs, stats.Segments, stats.Bytes)
	return nil
}

func runExport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	workers := fs.Int("workers", 0, "decode worker pool size (0 = GOMAXPROCS)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	return faultstore.Export(ctx, fs.Arg(0), fs.Arg(1), *workers)
}

func runCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	stats, err := faultstore.Compact(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "compacted %d segments to %d, %d faults to %d\n",
		stats.SegmentsBefore, stats.SegmentsAfter, stats.FaultsBefore, stats.FaultsAfter)
	return nil
}

func runQuery(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	nodes := fs.String("nodes", "", "comma-separated node subset (blade-SoC, e.g. 02-04,03-11)")
	from := fs.String("from", "", "range start (RFC 3339 or YYYY-MM-DD), inclusive")
	to := fs.String("to", "", "range end, exclusive")
	workers := fs.Int("workers", 0, "decode worker pool size (0 = GOMAXPROCS)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	q := faultstore.Query{Workers: *workers}
	if *nodes != "" {
		for _, n := range strings.Split(*nodes, ",") {
			id, err := cluster.ParseNodeID(strings.TrimSpace(n))
			if err != nil {
				return err
			}
			q.Nodes = append(q.Nodes, id)
		}
	}
	if (*from == "") != (*to == "") {
		return fmt.Errorf("-from and -to must be given together")
	}
	if *from != "" {
		fromT, err := parseTime(*from)
		if err != nil {
			return err
		}
		toT, err := parseTime(*to)
		if err != nil {
			return err
		}
		if !fromT.Before(toT) {
			return fmt.Errorf("-from %v is not before -to %v", fromT, toT)
		}
		q.HasRange = true
		q.From = timebase.FromTime(fromT)
		q.To = timebase.FromTime(toT)
	}

	s, err := faultstore.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	var faults, sessions int
	var line []byte
	for ev, err := range s.Events(ctx, q) {
		if err != nil {
			return err
		}
		switch ev.Kind {
		case stream.KindFault:
			faults++
			rec := logstore.FaultRecord(ev.Fault)
			line = append(rec.AppendText(line[:0]), '\n')
			if _, err := os.Stdout.Write(line); err != nil {
				return err
			}
		case stream.KindSession:
			sessions++
		}
	}
	fmt.Fprintf(os.Stderr, "%d faults, %d sessions; %d/%d segments opened (%d pruned by index)\n",
		faults, sessions, s.SegmentsOpened(), s.Segments(), s.SegmentsPruned())
	return nil
}

func runFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	repair := fs.Bool("repair", false, "quarantine corrupt segments and delete orphans")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	var opts []faultstore.FsckOption
	if *repair {
		opts = append(opts, faultstore.WithRepair())
	}
	rep, err := faultstore.Fsck(fs.Arg(0), opts...)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, rep)
	// After -repair the findings were acted on: quarantined references are
	// gone from the manifest and orphans are deleted, so the store is
	// consistent again and the exit status says so.
	if !rep.Clean() && !*repair {
		return fmt.Errorf("store has %d corrupt segment(s), %d orphan(s)",
			len(rep.Corrupt), len(rep.Orphans))
	}
	return nil
}

// parseTime accepts RFC 3339 or a plain UTC date.
func parseTime(s string) (time.Time, error) {
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad time %q (want RFC 3339 or YYYY-MM-DD)", s)
	}
	return t, nil
}
