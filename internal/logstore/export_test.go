package logstore

import (
	"io/fs"
	"path/filepath"
	"sync"
	"testing"

	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/iofault"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

func TestExportLoadRoundTrip(t *testing.T) {
	hostA := cluster.NodeID{Blade: 2, SoC: 4}
	hostB := cluster.NodeID{Blade: 40, SoC: 6}
	day := timebase.T(86400)
	sessions := []eventlog.Session{
		{Host: hostA, From: 0, To: 4 * 3600, AllocBytes: 3 << 30},
		{Host: hostA, From: 10 * day, To: 10*day + 7200, AllocBytes: 3 << 30},
		{Host: hostB, From: 5 * day, To: 5*day + 3600, AllocBytes: 2 << 30, Truncated: true},
	}
	faults := []extract.Fault{
		extract.Classify(extract.RawRun{
			Node: hostA, Addr: 100, FirstAt: 3600, LastAt: 3600, Logs: 1,
			Expected: 0xFFFFFFFF, Actual: 0xFFFF7BFF, TempC: 33.5,
		}),
		extract.Classify(extract.RawRun{
			Node: hostA, Addr: 2000, FirstAt: 10*day + 600, LastAt: 10*day + 600, Logs: 1,
			Expected: 0xFFFFFFFF, Actual: 0xFFFFFFFE, TempC: thermal.NoReading,
		}),
	}

	dir := t.TempDir()
	if err := Export(sessions, faults, dir); err != nil {
		t.Fatal(err)
	}
	back, sessionsBack, _ := collectStream(t, dir, 0)

	if files, err := ListNodeFiles(dir); err != nil || len(files) != 2 {
		t.Fatalf("node files %v (%v)", files, err)
	}
	if len(back) != len(faults) {
		t.Fatalf("faults %d, want %d", len(back), len(faults))
	}
	for i := range back {
		want := faults[i]
		got := back[i]
		if got.Node != want.Node || got.Addr != want.Addr ||
			got.FirstAt != want.FirstAt || got.Expected != want.Expected ||
			got.Actual != want.Actual {
			t.Fatalf("fault %d mismatch:\n got %+v\nwant %+v", i, got.RawRun, want.RawRun)
		}
		if got.Bits != want.Bits {
			t.Fatalf("fault %d classification drifted", i)
		}
	}

	// Session accounting round-trips with the truncation rule intact.
	var hours float64
	truncated := 0
	for _, s := range sessionsBack {
		hours += s.Duration().Hours()
		if s.Truncated {
			truncated++
		}
	}
	if hours != 6 { // 4h + 2h; the truncated one counts 0
		t.Fatalf("hours %v, want 6", hours)
	}
	if truncated != 1 {
		t.Fatalf("truncated sessions %d, want 1", truncated)
	}

	// Addresses survive the virtual-address encoding.
	if dram.VirtAddr(back[0].Addr) != dram.VirtAddr(100) &&
		dram.VirtAddr(back[0].Addr) != dram.VirtAddr(2000) {
		t.Fatal("address mapping broken")
	}
}

func TestExportEmptyDataset(t *testing.T) {
	dir := t.TempDir()
	if err := Export(nil, nil, dir); err != nil {
		t.Fatal(err)
	}
	faults, sessions, _ := collectStream(t, dir, 0)
	if len(faults) != 0 || len(sessions) != 0 {
		t.Fatal("phantom data from empty export")
	}
}

// openTracker is an iofault.FS that records every file opened, for
// reading or for writing, and how many are open at once.
type openTracker struct {
	iofault.FS
	mu      sync.Mutex
	open    int
	maxOpen int
	opened  []string
}

func (c *openTracker) Open(name string) (iofault.File, error) {
	f, err := c.FS.Open(name)
	return c.track(name, f, err)
}

func (c *openTracker) OpenFile(name string, flag int, perm fs.FileMode) (iofault.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	return c.track(name, f, err)
}

// track counts one successful open of name and wraps its file so Close
// uncounts it.
func (c *openTracker) track(name string, f iofault.File, err error) (iofault.File, error) {
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.open++
	c.maxOpen = max(c.maxOpen, c.open)
	c.opened = append(c.opened, filepath.Base(name))
	return &trackedFile{File: f, c: c}, nil
}

type trackedFile struct {
	iofault.File
	c *openTracker
}

func (f *trackedFile) Close() error {
	f.c.mu.Lock()
	f.c.open--
	f.c.mu.Unlock()
	return f.File.Close()
}

// TestExportOpensOneNodeFileAtATime: Export holds a single descriptor
// however many nodes it writes, and visits the node files in node order —
// every file opened once, closed before the next opens.
func TestExportOpensOneNodeFileAtATime(t *testing.T) {
	const nodes = 24
	var sessions []eventlog.Session
	var faults []extract.Fault
	// Interleave the nodes in the input, in reverse node order, so neither
	// input order nor node order falls out of the data by accident.
	for round := 0; round < 3; round++ {
		for n := nodes - 1; n >= 0; n-- {
			host := cluster.NodeID{Blade: n/15 + 1, SoC: n%15 + 1}
			from := timebase.T(round*10000 + n)
			sessions = append(sessions, eventlog.Session{Host: host, From: from, To: from + 3600, AllocBytes: 1 << 30})
			faults = append(faults, extract.Classify(extract.RawRun{
				Node: host, Addr: dram.Addr(round), FirstAt: from + 60, LastAt: from + 60, Logs: 1,
				Expected: 0xffffffff, Actual: 0xfffffffe, TempC: thermal.NoReading,
			}))
		}
	}

	tracker := &openTracker{FS: iofault.OS}
	dir := t.TempDir()
	if err := Export(sessions, faults, dir, WithFS(tracker)); err != nil {
		t.Fatal(err)
	}
	if tracker.maxOpen != 1 || tracker.open != 0 {
		t.Fatalf("export held up to %d node files open (%d left open), want one at a time",
			tracker.maxOpen, tracker.open)
	}
	var want []string
	for n := 0; n < nodes; n++ {
		want = append(want, FileName(cluster.NodeID{Blade: n/15 + 1, SoC: n%15 + 1}))
	}
	if len(tracker.opened) != len(want) {
		t.Fatalf("opened %d files, want %d: %v", len(tracker.opened), len(want), tracker.opened)
	}
	for i := range want {
		if tracker.opened[i] != want[i] {
			t.Fatalf("open %d was %s, want %s (node order)", i, tracker.opened[i], want[i])
		}
	}
	if faults, sessions, _ := collectStream(t, dir, 0); len(faults) != 3*nodes || len(sessions) != 3*nodes {
		t.Fatalf("replayed %d faults and %d sessions, want %d each", len(faults), len(sessions), 3*nodes)
	}
}
