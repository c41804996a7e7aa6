package logstore

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"testing"
	"time"

	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/stream"
)

// TestEventsMatchesStreamWorkers: for every worker count the iterator
// must deliver the stats prologue first, then exactly the exported faults
// in extract.Compare order, then exactly the exported sessions in
// eventlog.CompareSessions order — the dataset synthDir wrote, sorted
// here without the loader's k-way merge.
func TestEventsMatchesStreamWorkers(t *testing.T) {
	dir := t.TempDir()
	wantSessions, wantFaults := synthDir(t, dir, 12, 9, 25)
	sort.Slice(wantFaults, func(i, j int) bool { return extract.Compare(&wantFaults[i], &wantFaults[j]) < 0 })
	sort.Slice(wantSessions, func(i, j int) bool {
		return eventlog.CompareSessions(&wantSessions[i], &wantSessions[j]) < 0
	})

	for _, workers := range []int{0, 1, 3, 16} {
		var gotFaults []extract.Fault
		var gotSessions []eventlog.Session
		var gotStats *stream.Stats
		for ev, err := range Events(context.Background(), dir, workers) {
			if err != nil {
				t.Fatal(err)
			}
			switch ev.Kind {
			case stream.KindStats:
				if gotStats != nil || len(gotFaults) > 0 || len(gotSessions) > 0 {
					t.Fatal("stats prologue missing or not first")
				}
				gotStats = ev.Stats
			case stream.KindFault:
				if len(gotSessions) > 0 {
					t.Fatal("fault delivered after a session")
				}
				gotFaults = append(gotFaults, ev.Fault)
			case stream.KindSession:
				gotSessions = append(gotSessions, ev.Session)
			}
		}
		if gotStats == nil {
			t.Fatalf("workers=%d: no stats prologue", workers)
		}
		if gotStats.Faults != len(wantFaults) || gotStats.Sessions != len(wantSessions) {
			t.Fatalf("workers=%d: prologue counts %d/%d, want %d/%d", workers,
				gotStats.Faults, gotStats.Sessions, len(wantFaults), len(wantSessions))
		}
		if len(gotFaults) != len(wantFaults) || len(gotSessions) != len(wantSessions) {
			t.Fatalf("workers=%d: lengths differ", workers)
		}
		for i := range gotFaults {
			if gotFaults[i] != wantFaults[i] {
				t.Fatalf("workers=%d: fault %d differs", workers, i)
			}
		}
		for i := range gotSessions {
			if gotSessions[i] != wantSessions[i] {
				t.Fatalf("workers=%d: session %d differs", workers, i)
			}
		}
	}
}

// TestEventsSurfacesLoadErrors: a missing directory must surface as the
// iterator's error.
func TestEventsSurfacesLoadErrors(t *testing.T) {
	for ev, err := range Events(context.Background(), t.TempDir()+"/missing", 2) {
		if err == nil {
			t.Fatalf("delivered %+v from a missing directory", ev)
		}
		return
	}
	t.Fatal("iterator yielded nothing for a missing directory")
}

// TestEventsCancel: a pre-cancelled context must abort the replay with
// ctx.Err() and leave no loader goroutines behind; cancelling mid-stream
// must stop delivery on the spot.
func TestEventsCancel(t *testing.T) {
	dir := t.TempDir()
	synthDir(t, dir, 8, 6, 40)

	baseline := runtime.NumGoroutine()
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	for ev, err := range Events(pre, dir, 4) {
		if err == nil {
			t.Fatalf("delivered %+v under a cancelled context", ev)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	faults := 0
	var sawErr error
	for ev, err := range Events(ctx, dir, 4) {
		if err != nil {
			sawErr = err
			break
		}
		if ev.Kind == stream.KindFault {
			if faults++; faults == 7 {
				cancelMid()
			}
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", sawErr)
	}
	if faults != 7 {
		t.Fatalf("delivered %d faults after cancel, want exactly 7", faults)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
