// Command campaign runs the full 13-month measurement campaign and writes
// the resulting dataset.
//
// Usage:
//
//	campaign [-seed N] [-faults FILE] [-sessions FILE] [-logdir DIR]
//
// -faults writes every independent memory fault as a canonical ERROR log
// line (the §II-C extracted view, ~58k lines); -sessions writes START/END
// pairs for every scanner session; -logdir exports the prototype's
// one-log-file-per-node layout through logstore.Export, which `analyze
// -from-logs` and `faultstore ingest` consume. A summary is always
// printed. The raw 25M-record stream is not materialized — it is counted
// during simulation exactly as the analysis requires (see DESIGN.md).
// SIGINT cancels the simulation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"unprotected"
	"unprotected/internal/eventlog"
	"unprotected/internal/logstore"
)

func main() {
	seed := flag.Uint64("seed", 42, "campaign RNG seed")
	faultsPath := flag.String("faults", "", "write independent faults as ERROR log lines")
	sessionsPath := flag.String("sessions", "", "write sessions as START/END log lines")
	logDir := flag.String("logdir", "", "write per-node log files (the prototype's on-disk layout)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	study, err := unprotected.Analyze(ctx, unprotected.Simulate(unprotected.DefaultConfig(*seed)))
	if err != nil {
		fail(err)
	}
	h := study.Headline()
	fmt.Printf("campaign complete: %d raw logs, %d independent faults, %.0f node-hours, %.0f TBh\n",
		h.RawLogs, h.IndependentFaults, float64(h.NodeHours), float64(h.TotalTBh))

	if *faultsPath != "" {
		if err := writeFaults(study, *faultsPath); err != nil {
			fail(err)
		}
		fmt.Println("faults written to", *faultsPath)
	}
	if *sessionsPath != "" {
		if err := writeSessions(study, *sessionsPath); err != nil {
			fail(err)
		}
		fmt.Println("sessions written to", *sessionsPath)
	}
	if *logDir != "" {
		if err := logstore.Export(study.Dataset.Sessions, study.Dataset.Faults, *logDir); err != nil {
			fail(err)
		}
		fmt.Println("per-node logs written to", *logDir, "— analyze them with: analyze -from-logs", *logDir)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "campaign:", err)
	os.Exit(1)
}

func writeFaults(study *unprotected.Study, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := eventlog.NewWriter(f)
	for _, fault := range study.Dataset.Faults {
		if err := w.Write(logstore.FaultRecord(fault)); err != nil {
			return err
		}
	}
	return w.Flush()
}

func writeSessions(study *unprotected.Study, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := eventlog.NewWriter(f)
	var recs []eventlog.Record
	for _, s := range study.Dataset.Sessions {
		recs = logstore.AppendSessionRecords(recs[:0], s)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}
