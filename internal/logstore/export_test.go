package logstore

import (
	"testing"

	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
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
