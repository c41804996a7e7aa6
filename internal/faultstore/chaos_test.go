package faultstore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/iofault"
	"unprotected/internal/logstore"
	"unprotected/internal/stream"
)

// The chaos suite proves the store's crash-consistency and degraded-read
// contracts by construction: every write/rename/sync boundary of Ingest
// and Compact is enumerated and crashed at, the reopened store must
// export byte-identically to either the pre- or the post-operation state
// (never a torn hybrid), and fsck must verify it clean or repair it to
// clean. Single-worker runs keep the injector's mutation numbering
// deterministic, which is what makes "crash at mutation n" a complete
// sweep rather than a sample.

// chaosBatchA is the pre-existing store content: two nodes, one window.
func chaosBatchA(t *testing.T) string {
	t.Helper()
	// The two faults land in different one-hour windows, so the store
	// always holds at least two segments whatever the shard hashing does.
	faults := []extract.Fault{
		synthFault(2, 4, 0x100, 1000, 1040, 3, 0xffffffff, 0xfffeffff),
		synthFault(3, 1, 0x200, 4200, 4200, 1, 0xffffffff, 0xfffffffe),
	}
	sessions := []eventlog.Session{
		{Host: faults[0].Node, From: 900, To: 2000, AllocBytes: 1 << 20},
		{Host: faults[1].Node, From: 4100, To: 5200, AllocBytes: 1 << 20},
	}
	return exportDir(t, faults, sessions)
}

// chaosBatchB is the second generation: it extends batch A's first run
// within the collapse gap (so Compact has a real cross-generation merge
// to do and pre/post exports genuinely differ) and adds a third node.
func chaosBatchB(t *testing.T) string {
	t.Helper()
	faults := []extract.Fault{
		synthFault(2, 4, 0x100, 1080, 1110, 2, 0xffffffff, 0xfffeffff),
		synthFault(5, 2, 0x300, 4000, 4010, 2, 0x0, 0x00010000),
	}
	sessions := []eventlog.Session{
		{Host: faults[1].Node, From: 3900, To: 5000, AllocBytes: 2 << 20},
	}
	return exportDir(t, faults, sessions)
}

// copyStore clones a store directory (flat files) into a fresh temp dir.
func copyStore(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for name, data := range readFiles(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// exportSnapshot renders the store to text logs and snapshots the bytes.
func exportSnapshot(t *testing.T, storeDir string) map[string][]byte {
	t.Helper()
	out := t.TempDir()
	if err := Export(context.Background(), storeDir, out, 1); err != nil {
		t.Fatal(err)
	}
	return readFiles(t, out)
}

// equalFiles compares two directory snapshots byte for byte.
func equalFiles(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if !bytes.Equal(b[name], data) {
			return false
		}
	}
	return true
}

// verifyOrRepair asserts the store checks clean, or that one fsck
// -repair pass restores it to clean — the sweep's second invariant.
func verifyOrRepair(t *testing.T, dir string, label string) {
	t.Helper()
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatalf("%s: fsck: %v", label, err)
	}
	if rep.Clean() {
		return
	}
	if _, err := Fsck(dir, WithRepair()); err != nil {
		t.Fatalf("%s: fsck -repair: %v", label, err)
	}
	rep, err = Fsck(dir)
	if err != nil {
		t.Fatalf("%s: fsck after repair: %v", label, err)
	}
	if !rep.Clean() {
		t.Fatalf("%s: store still dirty after repair:\n%s", label, rep)
	}
}

// crashSweep enumerates every mutation boundary of op (already proven to
// perform total mutations by a counting baseline) and asserts the
// pre-or-post invariant plus fsck-clean-or-repairable at each one, with
// and without a torn final write.
func crashSweep(t *testing.T, preDir string, total uint64,
	preExport, postExport map[string][]byte,
	op func(dir string, fsys iofault.FS) error) {
	t.Helper()
	for _, torn := range []bool{false, true} {
		for n := uint64(0); n <= total; n++ {
			dir := copyStore(t, preDir)
			inj := iofault.NewInjector(nil)
			inj.CrashAfterMutations(n)
			if torn {
				inj.SetCrashTorn(0.41)
			}
			err := op(dir, inj)
			label := "crash at mutation " + itoa(n)
			if torn {
				label += " (torn)"
			}
			if n == total && err != nil {
				t.Fatalf("crash point beyond the last mutation must not fire: %v", err)
			}
			got := exportSnapshot(t, dir)
			matchPre, matchPost := equalFiles(got, preExport), equalFiles(got, postExport)
			if !matchPre && !matchPost {
				t.Fatalf("%s: reopened store exports a torn hybrid (matches neither pre nor post state)", label)
			}
			if err == nil && !matchPost {
				// Success may legitimately be reported even when the crash
				// ate post-commit best-effort cleanup (obsolete-segment
				// deletion) — but then the commit itself must have landed.
				t.Fatalf("%s: operation reported success but the store is not in the post state", label)
			}
			verifyOrRepair(t, dir, label)
		}
	}
}

func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestCrashSweepIngest crashes an additive ingest at every write, sync,
// rename and remove boundary: the reopened store must be byte-identical
// (via export) to the store before or after the ingest, never in
// between, and fsck must account for all crash litter.
func TestCrashSweepIngest(t *testing.T) {
	ctx := context.Background()
	batchA, batchB := chaosBatchA(t), chaosBatchB(t)

	pre := t.TempDir()
	if _, err := Ingest(ctx, batchA, pre, WithShards(4), WithWindow(time.Hour), WithIngestWorkers(1)); err != nil {
		t.Fatal(err)
	}
	preExport := exportSnapshot(t, pre)

	ingestB := func(dir string, fsys iofault.FS) error {
		opts := []IngestOption{WithShards(4), WithIngestWorkers(1)}
		if fsys != nil {
			opts = append(opts, WithIngestFS(fsys))
		}
		_, err := Ingest(ctx, batchB, dir, opts...)
		return err
	}

	post := copyStore(t, pre)
	if err := ingestB(post, nil); err != nil {
		t.Fatal(err)
	}
	postExport := exportSnapshot(t, post)
	if equalFiles(preExport, postExport) {
		t.Fatal("batch B must change the exported dataset or the sweep proves nothing")
	}

	// Counting baseline: an empty injector is a passthrough, and the
	// single-worker run makes its mutation numbering the sweep's axis.
	base := copyStore(t, pre)
	counter := iofault.NewInjector(nil)
	if err := ingestB(base, counter); err != nil {
		t.Fatal(err)
	}
	total := counter.Mutations()
	if total < 8 {
		t.Fatalf("ingest performed only %d mutations; the sweep axis looks wrong", total)
	}
	if !equalFiles(exportSnapshot(t, base), postExport) {
		t.Fatal("counting baseline diverged from the clean run")
	}

	crashSweep(t, pre, total, preExport, postExport, ingestB)
}

// TestCrashSweepCompact is the same sweep over compaction, whose
// post-swap obsolete-segment deletion adds a crash window where the new
// manifest is live but old segments still exist — fsck must see those as
// orphans and repair must delete them.
func TestCrashSweepCompact(t *testing.T) {
	ctx := context.Background()
	batchA, batchB := chaosBatchA(t), chaosBatchB(t)

	pre := t.TempDir()
	if _, err := Ingest(ctx, batchA, pre, WithShards(4), WithWindow(time.Hour), WithIngestWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Ingest(ctx, batchB, pre, WithShards(4), WithIngestWorkers(1)); err != nil {
		t.Fatal(err)
	}
	preExport := exportSnapshot(t, pre)

	compact := func(dir string, fsys iofault.FS) error {
		var opts []CompactOption
		if fsys != nil {
			opts = append(opts, WithCompactFS(fsys))
		}
		_, err := Compact(dir, opts...)
		return err
	}

	post := copyStore(t, pre)
	if err := compact(post, nil); err != nil {
		t.Fatal(err)
	}
	postExport := exportSnapshot(t, post)
	if equalFiles(preExport, postExport) {
		t.Fatal("compaction must merge the cross-generation run or the sweep proves nothing")
	}

	base := copyStore(t, pre)
	counter := iofault.NewInjector(nil)
	if err := compact(base, counter); err != nil {
		t.Fatal(err)
	}
	total := counter.Mutations()
	if total < 8 {
		t.Fatalf("compact performed only %d mutations; the sweep axis looks wrong", total)
	}
	if !equalFiles(exportSnapshot(t, base), postExport) {
		t.Fatal("counting baseline diverged from the clean run")
	}

	crashSweep(t, pre, total, preExport, postExport, compact)
}

// chaosStore builds a store with several segments and returns its
// directory, the sorted segment names and the ingested totals.
func chaosStore(t *testing.T) (dir string, segs []string, faults, sessions int) {
	t.Helper()
	dir = t.TempDir()
	stats, err := Ingest(context.Background(), chaosBatchA(t), dir,
		WithShards(4), WithWindow(time.Hour), WithIngestWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for name := range readFiles(t, dir) {
		if strings.HasSuffix(name, ".seg") {
			segs = append(segs, name)
		}
	}
	if len(segs) < 2 {
		t.Fatalf("store has %d segments, want several for skip tests", len(segs))
	}
	return dir, segs, stats.Faults, stats.Sessions
}

// drainErr collects a query, returning the stream error instead of
// failing the test — for paths where an error is the expected outcome.
func drainErr(s *Store, q Query) (faults []extract.Fault, sessions []eventlog.Session, err error) {
	for ev, serr := range s.Events(context.Background(), q) {
		if serr != nil {
			return nil, nil, serr
		}
		switch ev.Kind {
		case stream.KindFault:
			faults = append(faults, ev.Fault)
		case stream.KindSession:
			sessions = append(sessions, ev.Session)
		}
	}
	return faults, sessions, nil
}

// TestDegradedReadSkipsCorruptSegment pins the degraded contract: strict
// reads hard-fail on a CRC-broken segment, degraded reads deliver
// everything else and account for the loss in the health report.
func TestDegradedReadSkipsCorruptSegment(t *testing.T) {
	dir, segs, totalFaults, totalSessions := chaosStore(t)
	victim := segs[0]
	path := filepath.Join(dir, victim)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := drainErr(s, Query{Workers: 1}); err == nil {
		t.Fatal("strict read of a corrupt segment must fail")
	} else if !strings.Contains(err.Error(), victim) {
		t.Fatalf("strict error does not name the corrupt segment: %v", err)
	}

	h := &Health{}
	faults, sessions, err := drainErr(s, Query{Workers: 1, Degraded: true, Health: h})
	if err != nil {
		t.Fatalf("degraded read failed: %v", err)
	}
	sk := h.Skipped()
	if len(sk) != 1 || sk[0].Segment != victim {
		t.Fatalf("health skipped %v, want exactly [%s]", sk, victim)
	}
	if h.Clean() {
		t.Fatal("health must not report clean after a skip")
	}
	if len(faults)+h.LostFaults() != totalFaults {
		t.Fatalf("delivered %d + lost %d faults, want %d", len(faults), h.LostFaults(), totalFaults)
	}
	if len(sessions)+h.LostSessions() != totalSessions {
		t.Fatalf("delivered %d + lost %d sessions, want %d", len(sessions), h.LostSessions(), totalSessions)
	}
	if !strings.Contains(h.String(), victim) {
		t.Fatalf("health report does not name the segment:\n%s", h)
	}
}

// TestDegradedReadSkipsUnreadableSegment is the I/O-error flavour: a
// persistently failing read (retries exhausted) skips under Degraded and
// fails strict.
func TestDegradedReadSkipsUnreadableSegment(t *testing.T) {
	dir, segs, totalFaults, _ := chaosStore(t)
	victim := segs[len(segs)-1]

	inj := iofault.NewInjector(nil)
	inj.FailPath(victim, -1, nil)
	s, err := Open(dir, WithStoreFS(inj))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := drainErr(s, Query{Workers: 1}); err == nil {
		t.Fatal("strict read of an unreadable segment must fail")
	}

	h := &Health{}
	faults, _, err := drainErr(s, Query{Workers: 1, Degraded: true, Health: h})
	if err != nil {
		t.Fatalf("degraded read failed: %v", err)
	}
	sk := h.Skipped()
	if len(sk) != 1 || sk[0].Segment != victim || !errors.Is(sk[0].Err, iofault.ErrInjected) {
		t.Fatalf("health skipped %v, want the injected failure on %s", sk, victim)
	}
	if len(faults)+h.LostFaults() != totalFaults {
		t.Fatalf("delivered %d + lost %d faults, want %d", len(faults), h.LostFaults(), totalFaults)
	}
}

// TestTransientReadRetryRecovers pins the retry satellite: a segment
// read that fails transiently twice succeeds within the retry budget, so
// a strict query sees no error and the health stays clean.
func TestTransientReadRetryRecovers(t *testing.T) {
	dir, segs, totalFaults, _ := chaosStore(t)
	victim := segs[0]

	inj := iofault.NewInjector(nil)
	inj.FailPath(victim, 2, nil)
	s, err := Open(dir, WithStoreFS(inj))
	if err != nil {
		t.Fatal(err)
	}
	h := &Health{}
	faults, _, err := drainErr(s, Query{Workers: 1, Health: h})
	if err != nil {
		t.Fatalf("strict read should have recovered via retry: %v", err)
	}
	if len(faults) != totalFaults {
		t.Fatalf("delivered %d faults, want %d", len(faults), totalFaults)
	}
	if !h.Clean() {
		t.Fatalf("health reports skips after a recovered read:\n%s", h)
	}
}

// TestTransientStoreReads: the store reads its inputs under the one
// open rule, so a transient EIO on a node log during Ingest, or on the
// manifest during Open, is retried and changes nothing.
func TestTransientStoreReads(t *testing.T) {
	logs := chaosBatchA(t)
	clean := t.TempDir()
	if _, err := Ingest(context.Background(), logs, clean, WithShards(2), WithWindow(time.Hour)); err != nil {
		t.Fatal(err)
	}
	inj := iofault.NewInjector(nil)
	inj.FailPath(logstore.FileName(cluster.NodeID{Blade: 2, SoC: 4}), 1, nil)
	dir := t.TempDir()
	if _, err := Ingest(context.Background(), logs, dir, WithShards(2), WithWindow(time.Hour), WithIngestFS(inj)); err != nil {
		t.Fatalf("Ingest after one transient EIO on a node log: %v", err)
	}
	if !equalFiles(readFiles(t, dir), readFiles(t, clean)) {
		t.Fatal("Ingest after a transient EIO wrote other segments or another manifest than a clean ingest")
	}

	inj = iofault.NewInjector(nil)
	inj.FailPath(ManifestName, 1, nil)
	s, err := Open(dir, WithStoreFS(inj))
	if err != nil {
		t.Fatalf("Open after one transient EIO on the manifest: %v", err)
	}
	if got := s.Segments(); got != len(readFiles(t, dir))-1 {
		t.Fatalf("opened store names %d segments, want every segment file", got)
	}
}

// TestFsckFindsAndRepairs drives the scrubber end to end: a corrupt
// referenced segment plus two orphans are found, repair quarantines the
// segment, rewrites the manifest and deletes the litter, and the store
// then verifies clean and queries strict again.
func TestFsckFindsAndRepairs(t *testing.T) {
	dir, segs, totalFaults, _ := chaosStore(t)
	victim := segs[0]

	data, err := os.ReadFile(filepath.Join(dir, victim))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // trailer CRC byte
	if err := os.WriteFile(filepath.Join(dir, victim), data, 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := "seg-999-w0-g999999.seg"
	if err := os.WriteFile(filepath.Join(dir, orphan), []byte("litter"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName+".tmp"), []byte("stranded"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0].Segment != victim {
		t.Fatalf("fsck corrupt = %v, want [%s]", rep.Corrupt, victim)
	}
	if len(rep.Orphans) != 2 {
		t.Fatalf("fsck orphans = %v, want the litter segment and MANIFEST.tmp", rep.Orphans)
	}
	if rep.Clean() {
		t.Fatal("report must not be clean")
	}

	rep, err = Fsck(dir, WithRepair())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || !rep.ManifestRewritten || len(rep.Removed) != 2 {
		t.Fatalf("repair did not act on all findings:\n%s", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, victim)); err != nil {
		t.Fatalf("quarantined segment bytes missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, orphan)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan still present: %v", err)
	}

	rep, err = Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.SegmentsChecked != len(segs)-1 {
		t.Fatalf("store not clean after repair:\n%s", rep)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	faults, _, err := drainErr(s, Query{Workers: 1})
	if err != nil {
		t.Fatalf("strict query after repair: %v", err)
	}
	if len(faults) >= totalFaults {
		t.Fatalf("repair quarantined a segment but the query still delivered %d of %d faults", len(faults), totalFaults)
	}

	// Index mismatch is corruption too: a segment whose bytes are valid
	// but disagree with the manifest entry it is filed under.
	dir2, segs2, _, _ := chaosStore(t)
	good, err := os.ReadFile(filepath.Join(dir2, segs2[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, segs2[1]), good, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Fsck(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) == 0 || !strings.Contains(rep.Corrupt[0].Err.Error(), "mismatch") {
		t.Fatalf("fsck missed the index mismatch:\n%s", rep)
	}
}

// TestFsckRetriesTransientRead: fsck reads a segment as every other
// segment read does, so one transient EIO is retried and never marks a
// healthy segment corrupt (which -repair would quarantine).
func TestFsckRetriesTransientRead(t *testing.T) {
	dir, _, _, _ := chaosStore(t)
	man, err := readManifest(context.Background(), iofault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	e := &man.segs[0]
	inj := iofault.NewInjector(nil)
	inj.FailPath(e.name, 1, nil)
	if err := verifySegment(inj, dir, e); err != nil {
		t.Fatalf("verifySegment after one transient EIO: %v", err)
	}
}

// FuzzDegradedRead pins the degraded-read panic-freedom contract: no
// single-segment corruption — byte flips anywhere, truncation to any
// length, including zero — may panic a degraded query or surface as a
// hard error; the damage is always absorbed as a recorded skip (or, if
// the mutation happens to keep the segment decodable, as data).
func FuzzDegradedRead(f *testing.F) {
	f.Add(uint32(0), byte(0x01), false, uint16(0))
	f.Add(uint32(40), byte(0xff), true, uint16(1))
	f.Add(uint32(9999), byte(0x80), true, uint16(0))
	f.Add(uint32(17), byte(0x00), false, uint16(64))
	f.Fuzz(func(t *testing.T, pos uint32, flip byte, truncate bool, cut uint16) {
		dir, segs, totalFaults, _ := chaosStore(t)
		victim := segs[int(pos)%len(segs)]
		path := filepath.Join(dir, victim)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if truncate {
			data = data[:int(cut)%(len(data)+1)]
		} else if len(data) > 0 {
			data[int(pos)%len(data)] ^= flip
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		h := &Health{}
		faults, _, err := drainErr(s, Query{Workers: 1, Degraded: true, Health: h})
		if err != nil {
			t.Fatalf("degraded read surfaced a hard error: %v", err)
		}
		if len(faults)+h.LostFaults() != totalFaults {
			t.Fatalf("delivered %d + lost %d faults, want %d", len(faults), h.LostFaults(), totalFaults)
		}
	})
}
