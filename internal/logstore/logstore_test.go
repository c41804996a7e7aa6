package logstore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/iofault"
	"unprotected/internal/rng"
	"unprotected/internal/scanner"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

func TestFileNameRoundTrip(t *testing.T) {
	id := cluster.NodeID{Blade: 2, SoC: 4}
	name := FileName(id)
	if name != "node-02-04.log" {
		t.Fatalf("name %q", name)
	}
	back, ok := nodeOfFile("/some/dir/" + name)
	if !ok || back != id {
		t.Fatalf("inversion: %v %v", back, ok)
	}
	for _, name := range []string{"random.txt", "node-2-4.log", "node-02-04.log.1", "node-02-4.log"} {
		if _, ok := nodeOfFile(name); ok {
			t.Fatalf("%s accepted as a node file", name)
		}
	}
}

// writeLog appends records to their hosts' files under dir in the order
// given: the raw scanner layout (one ERROR line per observation), which
// Export, writing one line per collapsed fault, never produces.
func writeLog(t testing.TB, dir string, recs ...eventlog.Record) {
	t.Helper()
	for _, rec := range recs {
		f, err := os.OpenFile(filepath.Join(dir, FileName(rec.Host)), iofault.OpenAppendFlags, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		_, werr := f.WriteString(rec.String() + "\n")
		if err := errors.Join(werr, f.Close()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreWriteLoad(t *testing.T) {
	dir := t.TempDir()
	hostA := cluster.NodeID{Blade: 1, SoC: 2}
	hostB := cluster.NodeID{Blade: 3, SoC: 4}
	recs := []eventlog.Record{
		{Kind: eventlog.KindStart, At: 0, Host: hostA, AllocBytes: 3 << 30, TempC: thermal.NoReading},
		{Kind: eventlog.KindError, At: 11, Host: hostA, VAddr: dram.VirtAddr(7),
			Expected: 0xFFFFFFFF, Actual: 0xFFFFFFFE, TempC: thermal.NoReading},
		{Kind: eventlog.KindError, At: 22, Host: hostA, VAddr: dram.VirtAddr(7),
			Expected: 0xFFFFFFFF, Actual: 0xFFFFFFFE, TempC: thermal.NoReading},
		{Kind: eventlog.KindEnd, At: 3600, Host: hostA, TempC: thermal.NoReading},
		{Kind: eventlog.KindStart, At: 50, Host: hostB, AllocBytes: 2 << 30, TempC: thermal.NoReading},
		// hostB never logs an END: hard reboot, 0 hours.
	}
	writeLog(t, dir, recs...)

	faults, sessions, st := collectStream(t, dir, 0)
	if st.RawLogs != 2 {
		t.Fatalf("raw logs %d", st.RawLogs)
	}
	// The two consecutive ERROR records collapse into one run.
	if len(faults) != 1 || faults[0].Logs != 2 {
		t.Fatalf("faults %+v", faults)
	}
	if files, err := ListNodeFiles(dir); err != nil || len(files) != 2 {
		t.Fatalf("node files %v (%v)", files, err)
	}
	// Session accounting: hostA 1h, hostB truncated (0h).
	var hours float64
	for _, s := range sessions {
		hours += s.Duration().Hours()
	}
	if hours != 1 {
		t.Fatalf("monitored hours %v, want 1 (truncation rule)", hours)
	}
}

func TestLoadRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName(cluster.NodeID{Blade: 5, SoC: 5}))
	if err := os.WriteFile(path, []byte("GARBAGE LINE\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := collectEvents(Events(context.Background(), dir, 0)); err == nil {
		t.Fatal("corrupt log accepted")
	}
}

func TestEndToEndScannerToStoreToExtraction(t *testing.T) {
	// The real scanner writes a node log file; the replay reproduces the
	// exact fault the injector planted.
	dir := t.TempDir()
	host := cluster.NodeID{Blade: 7, SoC: 3}
	dev := dram.NewDevice(uint64(host.Index()), 4096, nil)
	bit := -1
	for b := 0; b < dram.WordBits; b++ {
		if dev.Polarity.IsTrueCell(uint64(host.Index()), 123, b) {
			bit = b
			break
		}
	}
	dev.AddWeakCell(&dram.WeakCell{Addr: 123, Bit: bit, LeakProb: 1, Active: true})
	var recs []eventlog.Record
	s := scanner.New(host, dev, scanner.FlipMode, func(rec eventlog.Record) {
		recs = append(recs, rec)
	}, rng.New(9))
	s.Run(timebase.T(100*86400), 8, nil)
	writeLog(t, dir, recs...)

	faults, _, st := collectStream(t, dir, 0)
	if len(faults) == 0 {
		t.Fatal("no faults recovered from disk")
	}
	for _, run := range faults {
		if run.Addr != 123 {
			t.Fatalf("fault at %d, want 123", run.Addr)
		}
		if run.Expected != 0xFFFFFFFF || run.Actual != 0xFFFFFFFF&^(1<<uint(bit)) {
			t.Fatalf("pattern %08x->%08x", run.Expected, run.Actual)
		}
	}
	if st.RawLogs != 4 { // observable on the 4 FF-phase checks of 8 passes
		t.Fatalf("raw logs %d, want 4", st.RawLogs)
	}
}
