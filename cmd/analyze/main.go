// Command analyze runs the full study and regenerates every figure and
// table of the paper.
//
// Usage:
//
//	analyze [-seed N] [-charts] [-heatmaps] [-csv DIR]
//	        [-from-logs DIR [-controller NODE] [-workers N]]
//	        [-store DIR [-controller NODE] [-workers N]]
//
// Without flags it prints the numeric report (headlines, Table I, Table
// II, per-figure statistics). -charts adds ASCII renderings of Figs 4–13,
// -heatmaps the Figs 1–3 node maps, and -csv writes every figure's data as
// CSV files for external plotting.
//
// -from-logs replays a directory of per-node log files — the paper's
// actual workflow — through the parallel loader: files are collapsed by a
// worker pool (-workers, default GOMAXPROCS), and the same number of
// workers folds them into the figure accumulators and merges them into
// the canonical order. The report is byte-identical for every -workers
// value, on every route.
//
// -store reads a binary fault store built by cmd/faultstore instead of
// text logs: the same downstream flags apply and the report is
// byte-identical to replaying the logs the store was ingested from.
//
// Both paths go through unprotected.Analyze over the matching Source;
// SIGINT cancels the run, winding the engine's worker pools down cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"unprotected"
	"unprotected/internal/core"
)

func main() {
	seed := flag.Uint64("seed", 42, "campaign RNG seed")
	charts := flag.Bool("charts", false, "render ASCII charts for Figs 4-13")
	heatmaps := flag.Bool("heatmaps", false, "render Figs 1-3 node heat maps")
	csvDir := flag.String("csv", "", "write per-figure CSV files to this directory")
	fromLogs := flag.String("from-logs", "", "analyze per-node log files from this directory instead of simulating")
	storeDir := flag.String("store", "", "analyze a binary fault store (built by cmd/faultstore) instead of simulating")
	controller := flag.String("controller", "02-04", "permanently failing node to exclude from MTBF analyses (with -from-logs)")
	workers := flag.Int("workers", 0, "source worker pool size (0 = GOMAXPROCS)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *fromLogs != "" && *storeDir != "" {
		fmt.Fprintln(os.Stderr, "analyze: -from-logs and -store are mutually exclusive")
		os.Exit(2)
	}
	var src unprotected.Source
	opts := []unprotected.Option{unprotected.WithWorkers(*workers)}
	switch {
	case *fromLogs != "":
		src = unprotected.Logs(*fromLogs)
		opts = append(opts, unprotected.WithController(*controller))
	case *storeDir != "":
		src = unprotected.Store(*storeDir)
		opts = append(opts, unprotected.WithController(*controller))
	default:
		src = unprotected.Simulate(unprotected.DefaultConfig(*seed))
	}
	study, err := unprotected.Analyze(ctx, src, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
	study.FullReport(os.Stdout, core.ReportOptions{Charts: *charts, Heatmaps: *heatmaps})

	if *csvDir != "" {
		if err := study.WriteCSVs(*csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		fmt.Println("CSV files written to", *csvDir)
	}
}
