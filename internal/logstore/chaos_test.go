package logstore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/iofault"
	"unprotected/internal/stream"
	"unprotected/internal/thermal"
)

var chaosRetry = iofault.RetryPolicy{Attempts: 4, Base: 50 * time.Microsecond, Max: time.Millisecond}

// TestAppendRetriesTransientOpen pins the writer's liveness under
// descriptor pressure: an EMFILE blip on the node-file open — two
// failures, then air — must be absorbed by the retry policy instead of
// killing the replay.
func TestAppendRetriesTransientOpen(t *testing.T) {
	dir := t.TempDir()
	node := cluster.NodeID{Blade: 2, SoC: 4}

	inj := iofault.NewInjector(nil)
	inj.FailPath(FileName(node), 2, syscall.EMFILE)
	st, err := NewStore(dir, WithFS(inj))
	if err != nil {
		t.Fatal(err)
	}
	st.SetRetry(chaosRetry)
	rec := eventlog.Record{Kind: eventlog.KindStart, At: 1000, Host: node, AllocBytes: 1 << 20, TempC: thermal.NoReading}
	if err := st.Append(rec); err != nil {
		t.Fatalf("append did not survive a transient EMFILE blip: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, FileName(node)))
	if err != nil || len(data) == 0 {
		t.Fatalf("node file not written after retried open: %v", err)
	}
}

// TestAppendSurfacesPersistentOpenFailure is the other half: when the
// failure does not clear within the retry budget, the error surfaces and
// the claimed descriptor token is released (the store stays usable for
// other nodes).
func TestAppendSurfacesPersistentOpenFailure(t *testing.T) {
	dir := t.TempDir()
	bad := cluster.NodeID{Blade: 2, SoC: 4}
	good := cluster.NodeID{Blade: 3, SoC: 1}

	inj := iofault.NewInjector(nil)
	inj.FailPath(FileName(bad), -1, syscall.EMFILE)
	st, err := NewStore(dir, WithFS(inj))
	if err != nil {
		t.Fatal(err)
	}
	st.SetRetry(chaosRetry)
	if err := st.Append(eventlog.Record{Kind: eventlog.KindStart, At: 1000, Host: bad, TempC: thermal.NoReading}); err == nil {
		t.Fatal("append to a persistently unopenable file must fail")
	} else if !errors.Is(err, syscall.EMFILE) {
		t.Fatalf("error lost its cause: %v", err)
	}
	if err := st.Append(eventlog.Record{Kind: eventlog.KindStart, At: 1000, Host: good, TempC: thermal.NoReading}); err != nil {
		t.Fatalf("store unusable after one node's open failure: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEventsFSReplaySurfacesReadFailure pins the replay seam: a node
// file whose open persistently fails turns into a stream error naming
// the file, not a hang or a silent omission.
func TestEventsFSReplaySurfacesReadFailure(t *testing.T) {
	dir := t.TempDir()
	node := cluster.NodeID{Blade: 2, SoC: 4}
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(eventlog.Record{Kind: eventlog.KindStart, At: 1000, Host: node, TempC: thermal.NoReading}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	inj := iofault.NewInjector(nil)
	inj.FailPath(FileName(node), -1, nil)
	var streamErr error
	for _, err := range Events(context.Background(), dir, 1, WithFS(inj)) {
		if err != nil {
			streamErr = err
			break
		}
	}
	if streamErr == nil || !errors.Is(streamErr, iofault.ErrInjected) {
		t.Fatalf("replay over an unreadable file yielded %v, want the injected failure", streamErr)
	}

	// And with no faults scheduled the same seam replays cleanly.
	events := 0
	for ev, err := range Events(context.Background(), dir, 1, WithFS(iofault.NewInjector(nil))) {
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == stream.KindSession {
			events++
		}
	}
	if events != 1 {
		t.Fatalf("clean replay delivered %d sessions, want 1", events)
	}
}
