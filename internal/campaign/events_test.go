package campaign

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/stream"
)

// TestEventsMatchesStream: the iterator must deliver exactly the dataset
// the sequential collect-all reference builds — stats prologue first,
// then the same faults in the same order, then the same sessions in the
// same order.
func TestEventsMatchesStream(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	want := legacyCollectAll(DefaultConfig(6))
	wantFaults, wantSessions := want.Faults, want.Sessions

	var gotFaults []extract.Fault
	var gotSessions []eventlog.Session
	var gotStats *stream.Stats
	sawPrologueFirst := true
	for ev, err := range Events(context.Background(), DefaultConfig(6)) {
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case stream.KindStats:
			if len(gotFaults) > 0 || len(gotSessions) > 0 || gotStats != nil {
				sawPrologueFirst = false
			}
			gotStats = ev.Stats
		case stream.KindFault:
			if len(gotSessions) > 0 {
				t.Fatal("fault delivered after a session")
			}
			gotFaults = append(gotFaults, ev.Fault)
		case stream.KindSession:
			gotSessions = append(gotSessions, ev.Session)
		default:
			t.Fatalf("unknown event kind %d", ev.Kind)
		}
	}
	if !sawPrologueFirst || gotStats == nil {
		t.Fatal("stats prologue missing or not first")
	}
	if gotStats.Faults != len(wantFaults) || gotStats.Sessions != len(wantSessions) ||
		gotStats.RawLogs != want.RawLogs || gotStats.AllocFails != want.AllocFails {
		t.Fatalf("stats differ: %+v vs %d faults, %d sessions, %d raw logs, %d alloc fails",
			gotStats, len(wantFaults), len(wantSessions), want.RawLogs, want.AllocFails)
	}
	if len(gotFaults) != len(wantFaults) {
		t.Fatalf("faults %d, want %d", len(gotFaults), len(wantFaults))
	}
	for i := range gotFaults {
		if gotFaults[i] != wantFaults[i] {
			t.Fatalf("fault %d differs", i)
		}
	}
	if len(gotSessions) != len(wantSessions) {
		t.Fatalf("sessions %d, want %d", len(gotSessions), len(wantSessions))
	}
	for i := range gotSessions {
		if gotSessions[i] != wantSessions[i] {
			t.Fatalf("session %d differs", i)
		}
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (the pool can take a few scheduler beats to unwind).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEventsCancelMidSimulation: cancelling while the worker pool is
// simulating must abort the campaign with ctx.Err() and wind every pool
// goroutine down before the iterator returns.
func TestEventsCancelMidSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	var sawErr error
	events := 0
	for ev, err := range Events(ctx, DefaultConfig(3)) {
		if err != nil {
			sawErr = err
			break
		}
		_ = ev
		events++
	}
	// The full campaign takes ~1s, so a 5ms cancel lands mid-simulation;
	// if this machine somehow finished first the test still must not leak.
	if sawErr != nil && !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", sawErr)
	}
	if sawErr == nil && events == 0 {
		t.Fatal("iterator ended with neither events nor an error")
	}
	waitForGoroutines(t, baseline)
}

// TestEventsCancelMidStream: cancelling between deliveries must surface
// ctx.Err() as the iterator's final pair instead of finishing the merge.
func TestEventsCancelMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faults := 0
	var sawErr error
	for ev, err := range Events(ctx, DefaultConfig(3)) {
		if err != nil {
			sawErr = err
			break
		}
		if ev.Kind == stream.KindFault {
			if faults++; faults == 100 {
				cancel()
			}
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", sawErr)
	}
	if faults != 100 {
		t.Fatalf("delivered %d faults after cancel, want exactly 100", faults)
	}
	waitForGoroutines(t, baseline)
}

// TestEventsEarlyBreak: breaking out of the range must stop the iterator
// without leaking; a fresh source must then deliver the full stream.
func TestEventsEarlyBreak(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	baseline := runtime.NumGoroutine()
	seen := 0
	for ev, err := range Events(context.Background(), DefaultConfig(3)) {
		if err != nil {
			t.Fatal(err)
		}
		_ = ev
		if seen++; seen == 10 {
			break
		}
	}
	if seen != 10 {
		t.Fatalf("consumed %d events, want 10", seen)
	}
	waitForGoroutines(t, baseline)
}
