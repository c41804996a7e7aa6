package logstore

import (
	"context"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/iofault"
	"unprotected/internal/rng"
	"unprotected/internal/stream"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

// synthDir writes a synthetic but irregular multi-node directory: every
// node gets sessions (some truncated) and a fault mix with ties on FirstAt
// across nodes, so the merges actually have work to do.
func synthDir(t testing.TB, dir string, nodes, sessionsPer, faultsPer int) ([]eventlog.Session, []extract.Fault) {
	t.Helper()
	r := rng.New(99)
	var sessions []eventlog.Session
	var faults []extract.Fault
	day := timebase.T(86400)
	for n := 0; n < nodes; n++ {
		host := cluster.NodeID{Blade: n/15 + 1, SoC: n%15 + 1}
		for s := 0; s < sessionsPer; s++ {
			from := timebase.T(s)*4*3600 + timebase.T(r.IntN(600))
			sess := eventlog.Session{
				Host: host, From: from, To: from + 3*3600,
				AllocBytes: 3 << 30,
			}
			if s%7 == 3 {
				sess.Truncated = true
				sess.To = 0
			}
			sessions = append(sessions, sess)
		}
		for i := 0; i < faultsPer; i++ {
			// Deliberate cross-node FirstAt collisions (i-based, not
			// node-based) exercise merge tie-breaking by node.
			at := day + timebase.T(i)*731
			temp := thermal.NoReading
			if i%3 != 0 {
				temp = 20 + r.Float64()*30
			}
			faults = append(faults, extract.Classify(extract.RawRun{
				Node: host, Addr: dram.Addr(i * 17), FirstAt: at, LastAt: at + timebase.T(r.IntN(500)),
				Logs: 1 + r.IntN(40), Expected: 0xffffffff, Actual: uint32(0xffffffff &^ (1 << (i % 32))),
				TempC: temp,
			}))
		}
	}
	if err := Export(sessions, faults, dir); err != nil {
		t.Fatal(err)
	}
	return sessions, faults
}

// collectEvents drains a batch stream into its delivered faults and
// sessions and its stats prologue.
func collectEvents(seq iter.Seq2[stream.Event, error]) ([]extract.Fault, []eventlog.Session, *stream.Stats, error) {
	var faults []extract.Fault
	var sessions []eventlog.Session
	var st *stream.Stats
	for ev, err := range seq {
		if err != nil {
			return nil, nil, nil, err
		}
		switch ev.Kind {
		case stream.KindStats:
			st = ev.Stats
		case stream.KindFault:
			faults = append(faults, ev.Fault)
		case stream.KindSession:
			sessions = append(sessions, ev.Session)
		}
	}
	return faults, sessions, st, nil
}

// collectStream replays dir through Events, failing the test on a replay
// error.
func collectStream(t testing.TB, dir string, workers int) ([]extract.Fault, []eventlog.Session, *stream.Stats) {
	t.Helper()
	faults, sessions, st, err := collectEvents(Events(context.Background(), dir, workers))
	if err != nil {
		t.Fatal(err)
	}
	return faults, sessions, st
}

// TestStreamDeterministicAcrossWorkers: the delivered sequences and stats
// must be identical for any worker-pool size, and in canonical order.
func TestStreamDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	synthDir(t, dir, 40, 8, 25)

	refFaults, refSessions, refStats := collectStream(t, dir, 1)
	if len(refFaults) == 0 || len(refSessions) == 0 {
		t.Fatal("stream delivered nothing")
	}
	for i := 1; i < len(refFaults); i++ {
		if extract.Compare(&refFaults[i-1], &refFaults[i]) >= 0 {
			t.Fatalf("fault %d out of canonical order", i)
		}
	}
	for i := 1; i < len(refSessions); i++ {
		if eventlog.CompareSessions(&refSessions[i-1], &refSessions[i]) >= 0 {
			t.Fatalf("session %d out of canonical order", i)
		}
	}
	if refStats.Faults != len(refFaults) || refStats.Sessions != len(refSessions) {
		t.Fatalf("stats (%d, %d) disagree with delivery (%d, %d)",
			refStats.Faults, refStats.Sessions, len(refFaults), len(refSessions))
	}

	for _, workers := range []int{2, 3, 8, 64} {
		faults, sessions, st := collectStream(t, dir, workers)
		if !reflect.DeepEqual(faults, refFaults) {
			t.Fatalf("workers=%d: fault stream differs", workers)
		}
		if !reflect.DeepEqual(sessions, refSessions) {
			t.Fatalf("workers=%d: session stream differs", workers)
		}
		if !reflect.DeepEqual(st, refStats) {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", workers, st, refStats)
		}
	}
}

// TestStreamPropagatesWorkerErrors: corrupt files must fail the whole
// stream deterministically, whichever worker hits one: the error names
// the lowest-indexed corrupt file, and a serial replay opens no file
// after it.
func TestStreamPropagatesWorkerErrors(t *testing.T) {
	dir := t.TempDir()
	synthDir(t, dir, 10, 2, 2)
	bad := filepath.Join(dir, FileName(cluster.NodeID{Blade: 1, SoC: 3}))
	worse := filepath.Join(dir, FileName(cluster.NodeID{Blade: 1, SoC: 7}))
	for _, path := range []string{bad, worse} {
		if err := os.WriteFile(path, []byte("GARBAGE LINE\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		_, _, _, err := collectEvents(Events(context.Background(), dir, workers))
		if err == nil {
			t.Fatalf("workers=%d: corrupt file accepted", workers)
		}
		if !strings.Contains(err.Error(), bad) {
			t.Fatalf("workers=%d: error %q does not name the first corrupt file %s", workers, err, bad)
		}
	}

	fsys := &openCounter{FS: iofault.OS}
	if _, _, _, err := collectEvents(Events(context.Background(), dir, 1, WithFS(fsys))); err == nil {
		t.Fatal("corrupt file accepted through WithFS")
	}
	for _, path := range fsys.opened {
		if path > bad {
			t.Fatalf("opened %s after the corrupt %s failed", path, bad)
		}
	}
	if len(fsys.opened) == 0 || fsys.opened[len(fsys.opened)-1] != bad {
		t.Fatalf("opened %v, want the files up to %s", fsys.opened, bad)
	}
}

// openCounter records every path opened through it.
type openCounter struct {
	iofault.FS
	mu     sync.Mutex
	opened []string
}

func (c *openCounter) Open(name string) (iofault.File, error) {
	c.mu.Lock()
	c.opened = append(c.opened, name)
	c.mu.Unlock()
	return c.FS.Open(name)
}

// TestStreamCampaignEquivalence is the replay/campaign equivalence
// contract: a campaign exported through the Store layout and re-read via
// Stream yields the same faults (every field), the same sessions (modulo
// the truncated-session end instants the log format deliberately cannot
// carry — a lost END is unknowable), and raw-log accounting equal to the
// campaign's for every characterized node. It also pins the
// Σ run.Logs == RawLogs invariant the -from-logs analysis path assumes.
func TestStreamCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	simFaults, simSessions, simStats, err := collectEvents(campaign.Events(context.Background(), campaign.DefaultConfig(7)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Export(simSessions, simFaults, dir); err != nil {
		t.Fatal(err)
	}

	wantSessions := make([]eventlog.Session, len(simSessions))
	copy(wantSessions, simSessions)
	for i := range wantSessions {
		if wantSessions[i].Truncated {
			wantSessions[i].To = 0
		}
	}

	for _, workers := range []int{1, 8} {
		faults, sessions, st := collectStream(t, dir, workers)

		if len(faults) != len(simFaults) {
			t.Fatalf("workers=%d: faults %d, want %d", workers, len(faults), len(simFaults))
		}
		for i := range faults {
			if faults[i] != simFaults[i] {
				t.Fatalf("workers=%d: fault %d differs:\n got %+v\nwant %+v",
					workers, i, faults[i], simFaults[i])
			}
		}
		if len(sessions) != len(wantSessions) {
			t.Fatalf("workers=%d: sessions %d, want %d", workers, len(sessions), len(wantSessions))
		}
		for i := range sessions {
			if sessions[i] != wantSessions[i] {
				t.Fatalf("workers=%d: session %d differs:\n got %+v\nwant %+v",
					workers, i, sessions[i], wantSessions[i])
			}
		}

		// Raw-log accounting: the export carries each characterized
		// fault's raw weight (logs=), so per-node volumes must round-trip
		// exactly for every node with faults. The pathological node's
		// ~98% raw share is excluded from characterization (§III-B) and
		// therefore from the extracted export.
		var sumLogs int64
		perNode := make(map[cluster.NodeID]int64)
		for _, f := range simFaults {
			sumLogs += int64(f.Logs)
			perNode[f.Node] += int64(f.Logs)
		}
		if st.RawLogs != sumLogs {
			t.Fatalf("workers=%d: RawLogs %d, want Σ fault.Logs %d", workers, st.RawLogs, sumLogs)
		}
		if !reflect.DeepEqual(st.RawLogsByNode, perNode) {
			t.Fatalf("workers=%d: per-node raw logs diverge from campaign", workers)
		}
		for id, n := range perNode {
			if simStats.RawLogsByNode[id] != n {
				t.Fatalf("workers=%d: node %v raw logs %d, want campaign's %d",
					workers, id, n, simStats.RawLogsByNode[id])
			}
		}
		// Σ run.Logs == RawLogs: what studyFromLogs silently assumed.
		var runSum int64
		for _, f := range faults {
			runSum += int64(f.Logs)
		}
		if runSum != st.RawLogs {
			t.Fatalf("workers=%d: Σ run.Logs %d != RawLogs %d", workers, runSum, st.RawLogs)
		}
	}
}

// BenchmarkLogstoreStream measures the replay loader over a
// multi-hundred-node directory. workers=1 is the sequential baseline the
// parallel default must beat.
func BenchmarkLogstoreStream(b *testing.B) {
	dir := b.TempDir()
	synthDir(b, dir, 300, 60, 120)
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				faults := 0
				for ev, err := range Events(context.Background(), dir, workers) {
					if err != nil {
						b.Fatal(err)
					}
					if ev.Kind == stream.KindFault {
						faults++
					}
				}
				if faults == 0 {
					b.Fatal("empty stream")
				}
			}
		})
	}
}
