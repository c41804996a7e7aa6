// Command campaign runs the full 13-month measurement campaign and writes
// the resulting dataset.
//
// Usage:
//
//	campaign [-seed N] [-stream] [-faults FILE] [-sessions FILE] [-logdir DIR]
//
// -faults writes every independent memory fault as a canonical ERROR log
// line (the §II-C extracted view, ~58k lines); -sessions writes START/END
// pairs for every scanner session; -logdir exports the prototype's
// one-log-file-per-node layout, which `analyze -from-logs` consumes.
// Without flags a summary is printed. The raw 25M-record stream is not
// materialized — it is counted during simulation exactly as the analysis
// requires (see DESIGN.md).
//
// -stream writes the -faults / -sessions / -logdir outputs directly off
// the campaign's merged event stream: the tool ranges over the engine's
// event iterator (filtered to the halves with sinks, so a sessions-only
// export never classifies faults) and formats each fault and session as
// the k-way merge emits it, so the merged dataset is never materialized
// (per-node buffers still exist inside the engine) and the output loads
// back identically to the collect-all path. For -logdir the stream is
// demultiplexed into the one-file-per-node layout by the descriptor-capped
// store (LRU eviction keeps burst-hot nodes open); ERROR lines within a
// node file are time-ordered, as are its START/END lines, which is all the
// replay loader requires. A sink write error aborts the stream on the
// spot — no further records are formatted or written to any sink
// (simulation itself has already finished by first delivery); SIGINT
// cancels mid-simulation too, truncating the run.
// Streaming skips the headline analysis (which needs the whole dataset).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"unprotected"
	"unprotected/internal/analysis"
	"unprotected/internal/campaign"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/logstore"
	"unprotected/internal/thermal"
)

func vaddrOf(f extract.Fault) uint64 { return dram.VirtAddr(f.Addr) }

func pageOf(f extract.Fault) uint64 { return dram.PhysPage(uint64(f.Node.Index()), f.Addr) }

func main() {
	seed := flag.Uint64("seed", 42, "campaign RNG seed")
	stream := flag.Bool("stream", false, "write outputs off the event stream without materializing the dataset")
	faultsPath := flag.String("faults", "", "write independent faults as ERROR log lines")
	sessionsPath := flag.String("sessions", "", "write sessions as START/END log lines")
	logDir := flag.String("logdir", "", "write per-node log files (the prototype's on-disk layout)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *stream {
		if err := streamCampaign(ctx, *seed, *faultsPath, *sessionsPath, *logDir); err != nil {
			fail(err)
		}
		return
	}

	study, err := unprotected.Analyze(ctx, unprotected.Simulate(unprotected.DefaultConfig(*seed)))
	if err != nil {
		fail(err)
	}
	h := analysis.ComputeHeadline(study.Dataset)
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

// faultRecord renders a fault in the canonical ERROR line shape. The
// last=/logs= fields carry the collapsed run's extent and raw volume so a
// re-import reconstructs the fault exactly instead of re-collapsing it.
func faultRecord(f extract.Fault) eventlog.Record {
	return eventlog.Record{
		Kind: eventlog.KindError, At: f.FirstAt, Host: f.Node,
		VAddr: vaddrOf(f), Actual: f.Actual, Expected: f.Expected,
		TempC: f.TempC, PhysPage: pageOf(f),
		LastAt: f.LastAt, Logs: max(f.Logs, 1),
	}
}

// sessionRecords renders a session as its START/END pair (END omitted for
// hard reboots, which never logged one). Sessions carry no temperature, so
// the records must say temp=NA — a zero TempC would fabricate a 0°C
// reading. Every session sink shares this construction so the flat files
// and the per-node layout cannot drift apart.
func sessionRecords(s eventlog.Session) []eventlog.Record {
	recs := []eventlog.Record{{
		Kind: eventlog.KindStart, At: s.From, Host: s.Host, AllocBytes: s.AllocBytes,
		TempC: thermal.NoReading,
	}}
	if !s.Truncated {
		recs = append(recs, eventlog.Record{
			Kind: eventlog.KindEnd, At: s.To, Host: s.Host, TempC: thermal.NoReading,
		})
	}
	return recs
}

// writeSession emits a session's records to a flat file.
func writeSession(w *eventlog.Writer, s eventlog.Session) error {
	for _, rec := range sessionRecords(s) {
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// streamCampaign is the -stream path: faults and sessions go to disk as
// the engine's k-way merge emits them, one record at a time, consumed
// straight off the Source iterator. The first failing sink (or ctx
// cancellation) aborts the stream immediately — returning out of the
// range-over-Events loop stops the producers — after which every opened
// sink is still flushed and closed, errors joined.
func streamCampaign(ctx context.Context, seed uint64, faultsPath, sessionsPath, logDir string) (err error) {
	var faultSinks []func(extract.Fault) error
	var sessionSinks []func(eventlog.Session) error
	var closers []func() error
	defer func() {
		for _, closer := range closers {
			err = errors.Join(err, closer())
		}
	}()
	newFileSink := func(path string) (*eventlog.Writer, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		w := eventlog.NewWriter(f)
		closers = append(closers, func() error {
			return errors.Join(w.Flush(), f.Close())
		})
		return w, nil
	}
	if faultsPath != "" {
		w, err := newFileSink(faultsPath)
		if err != nil {
			return err
		}
		faultSinks = append(faultSinks, func(f extract.Fault) error {
			return w.Write(faultRecord(f))
		})
	}
	if sessionsPath != "" {
		w, err := newFileSink(sessionsPath)
		if err != nil {
			return err
		}
		sessionSinks = append(sessionSinks, func(s eventlog.Session) error {
			return writeSession(w, s)
		})
	}
	if logDir != "" {
		// Demultiplex the merged stream into the one-file-per-node layout.
		// The merge visits a bursting node many times in a row, so the
		// store's LRU descriptor budget keeps hot files open. ERROR lines
		// land before START/END lines within each file (faults precede
		// sessions in the stream); both kinds are time-ordered per node,
		// which is all the replay loader's collapser and accounting need.
		store, err := logstore.NewStore(logDir)
		if err != nil {
			return err
		}
		closers = append(closers, store.Close)
		faultSinks = append(faultSinks, func(f extract.Fault) error {
			return store.Append(faultRecord(f))
		})
		sessionSinks = append(sessionSinks, func(s eventlog.Session) error {
			for _, rec := range sessionRecords(s) {
				if err := store.Append(rec); err != nil {
					return err
				}
			}
			return nil
		})
	}

	// EventsFiltered skips the extraction/sorting of any half with no
	// sink; the prologue's counts still cover the full campaign.
	var stats unprotected.SourceStats
	events := campaign.EventsFiltered(ctx, unprotected.DefaultConfig(seed),
		len(faultSinks) > 0, len(sessionSinks) > 0)
	for ev, evErr := range events {
		if evErr != nil {
			return evErr
		}
		switch ev.Kind {
		case unprotected.EventStats:
			stats = *ev.Stats
		case unprotected.EventFault:
			for _, sink := range faultSinks {
				if err := sink(ev.Fault); err != nil {
					return err
				}
			}
		case unprotected.EventSession:
			for _, sink := range sessionSinks {
				if err := sink(ev.Session); err != nil {
					return err
				}
			}
		}
	}
	for _, closer := range closers {
		err = errors.Join(err, closer())
	}
	closers = nil
	if err != nil {
		return err
	}
	fmt.Printf("campaign complete (streamed): %d raw logs, %d independent faults, %d sessions, %d alloc failures\n",
		stats.RawLogs, stats.Faults, stats.Sessions, stats.AllocFails)
	if faultsPath != "" {
		fmt.Println("faults streamed to", faultsPath)
	}
	if sessionsPath != "" {
		fmt.Println("sessions streamed to", sessionsPath)
	}
	if logDir != "" {
		fmt.Println("per-node logs streamed to", logDir, "— analyze them with: analyze -from-logs", logDir)
	}
	return nil
}

func writeFaults(study *unprotected.Study, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := eventlog.NewWriter(f)
	for _, fault := range study.Dataset.Faults {
		if err := w.Write(faultRecord(fault)); err != nil {
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
	for _, s := range study.Dataset.Sessions {
		if err := writeSession(w, s); err != nil {
			return err
		}
	}
	return w.Flush()
}
