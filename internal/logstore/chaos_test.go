package logstore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/iofault"
	"unprotected/internal/stream"
	"unprotected/internal/thermal"
)

// chaosDataset is a one-session-per-node dataset over the given nodes.
func chaosDataset(nodes ...cluster.NodeID) []eventlog.Session {
	sessions := make([]eventlog.Session, len(nodes))
	for i, n := range nodes {
		sessions[i] = eventlog.Session{Host: n, From: 1000, To: 4600, AllocBytes: 1 << 20}
	}
	return sessions
}

// TestAppendRetriesTransientOpen pins the writer's liveness under
// descriptor pressure: an EMFILE blip on one node file's append-open —
// two failures, then air — must be absorbed by the retry policy instead
// of killing the export, and the output must equal an export that never
// saw a failure.
func TestAppendRetriesTransientOpen(t *testing.T) {
	node := cluster.NodeID{Blade: 2, SoC: 4}
	sessions := chaosDataset(cluster.NodeID{Blade: 1, SoC: 1}, node, cluster.NodeID{Blade: 3, SoC: 1})

	inj := iofault.NewInjector(nil)
	inj.FailPath(FileName(node), 2, syscall.EMFILE)
	dir := t.TempDir()
	if err := Export(sessions, nil, dir, WithFS(inj)); err != nil {
		t.Fatalf("export did not survive a transient EMFILE blip: %v", err)
	}
	clean := t.TempDir()
	if err := Export(sessions, nil, clean); err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		got, err := os.ReadFile(filepath.Join(dir, FileName(s.Host)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(clean, FileName(s.Host)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s after retried open:\n%s\nwant:\n%s", FileName(s.Host), got, want)
		}
	}
}

// TestAppendSurfacesPersistentOpenFailure is the other half: when the
// failure does not clear within the retry budget, the export fails with
// the cause intact and leaves no file open.
func TestAppendSurfacesPersistentOpenFailure(t *testing.T) {
	bad := cluster.NodeID{Blade: 2, SoC: 4}
	inj := iofault.NewInjector(nil)
	inj.FailPath(FileName(bad), -1, syscall.EMFILE)

	tracker := &openTracker{FS: inj}
	err := Export(chaosDataset(cluster.NodeID{Blade: 1, SoC: 1}, bad), nil, t.TempDir(), WithFS(tracker))
	if err == nil {
		t.Fatal("export to a persistently unopenable file must fail")
	}
	if !errors.Is(err, syscall.EMFILE) {
		t.Fatalf("error lost its cause: %v", err)
	}
	if len(tracker.opened) != 1 || tracker.open != 0 {
		t.Fatalf("export opened %v and left %d open, want the good node's file opened and closed", tracker.opened, tracker.open)
	}
}

// TestTransientReplayOpen: the replay reads under the one open rule, so
// one transient EIO on a node file's open, or on the directory listing,
// is retried and the parts equal a fault-free replay's.
func TestTransientReplayOpen(t *testing.T) {
	dir := t.TempDir()
	node := cluster.NodeID{Blade: 2, SoC: 4}
	fault := extract.Classify(extract.RawRun{
		Node: node, Addr: 7, FirstAt: 1200, LastAt: 1260, Logs: 3,
		Expected: 0xffffffff, Actual: 0xfffffffe, TempC: thermal.NoReading,
	})
	if err := Export(chaosDataset(node), []extract.Fault{fault}, dir); err != nil {
		t.Fatal(err)
	}
	want, err := Parts(context.Background(), dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, FileName(node)), dir} {
		inj := iofault.NewInjector(nil)
		inj.FailPath(path, 1, nil)
		got, err := Parts(context.Background(), dir, 1, WithFS(inj))
		if err != nil {
			t.Fatalf("Parts after one transient EIO on %s: %v", path, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parts after one transient EIO on %s:\n got %+v\nwant %+v", path, got, want)
		}
	}
}

// TestEventsFSReplaySurfacesReadFailure pins the replay seam: a node
// file whose open persistently fails turns into a stream error naming
// the file, not a hang or a silent omission.
func TestEventsFSReplaySurfacesReadFailure(t *testing.T) {
	dir := t.TempDir()
	node := cluster.NodeID{Blade: 2, SoC: 4}
	if err := Export(chaosDataset(node), nil, dir); err != nil {
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
