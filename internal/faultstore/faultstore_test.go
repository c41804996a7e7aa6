package faultstore

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/iofault"
	"unprotected/internal/logstore"
	"unprotected/internal/stream"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

// synthFault builds a classified fault for synthetic datasets.
func synthFault(blade, soc int, addr uint32, first, last timebase.T, logs int, exp, act uint32) extract.Fault {
	return extract.Classify(extract.RawRun{
		Node: cluster.NodeID{Blade: blade, SoC: soc}, Addr: dram.Addr(addr),
		FirstAt: first, LastAt: last, Logs: logs,
		Expected: exp, Actual: act, TempC: thermal.NoReading,
	})
}

// exportDir writes a synthetic dataset as a text log directory.
func exportDir(t *testing.T, faults []extract.Fault, sessions []eventlog.Session) string {
	t.Helper()
	dir := t.TempDir()
	if err := logstore.Export(sessions, faults, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// drain collects everything a query delivers.
func drain(t *testing.T, s *Store, q Query) ([]extract.Fault, []eventlog.Session, *stream.Stats) {
	t.Helper()
	var faults []extract.Fault
	var sessions []eventlog.Session
	var stats stream.Stats
	for ev, err := range s.Events(context.Background(), q) {
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case stream.KindStats:
			stats = *ev.Stats
		case stream.KindFault:
			faults = append(faults, ev.Fault)
		case stream.KindSession:
			sessions = append(sessions, ev.Session)
		}
	}
	return faults, sessions, &stats
}

// readFiles snapshots a directory as name -> content.
func readFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestStoreRoundTripCampaign is the fidelity acceptance test: the seed-42
// campaign exported to text, ingested into the store and exported again
// must reproduce the source directory byte for byte — text stays the
// interchange format, the store only changes the query cost.
func TestStoreRoundTripCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	ctx := context.Background()
	var faults []extract.Fault
	var sessions []eventlog.Session
	for ev, err := range campaign.Events(ctx, campaign.DefaultConfig(42)) {
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case stream.KindFault:
			faults = append(faults, ev.Fault)
		case stream.KindSession:
			sessions = append(sessions, ev.Session)
		}
	}
	src := t.TempDir()
	if err := logstore.Export(sessions, faults, src); err != nil {
		t.Fatal(err)
	}

	storeDir := t.TempDir()
	stats, err := Ingest(ctx, src, storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Faults != len(faults) || stats.Sessions != len(sessions) {
		t.Fatalf("ingested %d faults / %d sessions, want %d / %d",
			stats.Faults, stats.Sessions, len(faults), len(sessions))
	}
	if stats.Segments < 2 {
		t.Fatalf("campaign ingest produced %d segments, want a partitioned store", stats.Segments)
	}

	out := t.TempDir()
	if err := Export(ctx, storeDir, out, 0); err != nil {
		t.Fatal(err)
	}
	want, got := readFiles(t, src), readFiles(t, out)
	if len(got) != len(want) {
		t.Fatalf("exported %d files, want %d", len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Fatalf("file %s differs after store round trip", name)
		}
	}
}

// TestStoreQueryNodeSubsetPruning pins the index's point: a node-subset
// query must open exactly the segments whose node set intersects the
// subset and skip every other one without any I/O.
func TestStoreQueryNodeSubsetPruning(t *testing.T) {
	var faults []extract.Fault
	hour := timebase.T(3600)
	for blade := 1; blade <= 6; blade++ {
		for w := 0; w < 3; w++ {
			at := timebase.T(w)*hour + timebase.T(blade)
			faults = append(faults, synthFault(blade, 2, uint32(blade*100+w), at, at, 1, 0xffffffff, 0xfffffffe))
		}
	}
	extract.SortFaults(faults)
	dir := exportDir(t, faults, nil)

	storeDir := t.TempDir()
	if _, err := Ingest(context.Background(), dir, storeDir,
		WithShards(4), WithWindow(time.Hour)); err != nil {
		t.Fatal(err)
	}
	s, err := Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Segments() < 6 {
		t.Fatalf("store has %d segments, want a multi-shard multi-window layout", s.Segments())
	}

	target := cluster.NodeID{Blade: 3, SoC: 2}
	wantOpen := 0
	for _, e := range s.man.segs {
		if slices.Contains(e.nodes, target) {
			wantOpen++
		}
	}
	if wantOpen == 0 || wantOpen == s.Segments() {
		t.Fatalf("degenerate layout: %d of %d segments hold %v", wantOpen, s.Segments(), target)
	}

	got, _, stats := drain(t, s, Query{Nodes: []cluster.NodeID{target}})
	if len(got) != 3 {
		t.Fatalf("query returned %d faults, want 3", len(got))
	}
	for _, f := range got {
		if f.Node != target {
			t.Fatalf("query leaked fault of node %v", f.Node)
		}
	}
	if stats.Faults != 3 || stats.RawLogs != 3 {
		t.Fatalf("stats prologue %+v does not match the filtered delivery", stats)
	}
	if opened := s.SegmentsOpened(); opened != int64(wantOpen) {
		t.Fatalf("opened %d segments, want exactly the %d whose index holds %v", opened, wantOpen, target)
	}
	if pruned := s.SegmentsPruned(); pruned != int64(s.Segments()-wantOpen) {
		t.Fatalf("pruned %d segments, want %d", pruned, s.Segments()-wantOpen)
	}
}

// TestStoreQueryTimeRangePruning is the time half of the pruning
// contract, plus the exact per-record [From, To) filter within a
// partially overlapping segment.
func TestStoreQueryTimeRangePruning(t *testing.T) {
	var faults []extract.Fault
	hour := timebase.T(3600)
	for w := 0; w < 4; w++ {
		for i := 0; i < 2; i++ {
			at := timebase.T(w)*hour + timebase.T(i*1800)
			faults = append(faults, synthFault(1, 2, uint32(w*10+i), at, at, 1, 0xffffffff, 0x7fffffff))
		}
	}
	extract.SortFaults(faults)
	dir := exportDir(t, faults, nil)

	storeDir := t.TempDir()
	if _, err := Ingest(context.Background(), dir, storeDir,
		WithShards(1), WithWindow(time.Hour)); err != nil {
		t.Fatal(err)
	}
	s, err := Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Segments() != 4 {
		t.Fatalf("store has %d segments, want 4 one-hour windows", s.Segments())
	}

	// [1h, 2h30m): all of window 1, the first fault of window 2.
	got, _, _ := drain(t, s, Query{HasRange: true, From: hour, To: 2*hour + 1800})
	if len(got) != 3 {
		t.Fatalf("range query returned %d faults, want 3", len(got))
	}
	for _, f := range got {
		if f.FirstAt < hour || f.FirstAt >= 2*hour+1800 {
			t.Fatalf("fault at %d escaped the [%d, %d) range", f.FirstAt, hour, 2*hour+1800)
		}
	}
	if opened := s.SegmentsOpened(); opened != 2 {
		t.Fatalf("opened %d segments, want the 2 overlapping windows", opened)
	}
	if pruned := s.SegmentsPruned(); pruned != 2 {
		t.Fatalf("pruned %d segments, want 2", pruned)
	}
}

// TestStoreCompactMergesSplitRuns pins the compaction semantics: a run
// cut in two by an ingest-batch boundary — same node, address and words,
// continuation within the §II-C gap — is one fault again after Compact,
// with the combined extent and raw-log weight.
func TestStoreCompactMergesSplitRuns(t *testing.T) {
	ctx := context.Background()
	first := []extract.Fault{
		synthFault(1, 2, 100, 1000, 1050, 5, 0xffffffff, 0xfffffffe),
		synthFault(4, 3, 200, 1010, 1010, 1, 0xffffffff, 0xffff7fff),
	}
	second := []extract.Fault{
		// Continues the first run: starts 30 s after its end (< 60 s gap).
		synthFault(1, 2, 100, 1080, 1120, 3, 0xffffffff, 0xfffffffe),
	}
	storeDir := t.TempDir()
	if _, err := Ingest(ctx, exportDir(t, first, nil), storeDir); err != nil {
		t.Fatal(err)
	}
	if _, err := Ingest(ctx, exportDir(t, second, nil), storeDir); err != nil {
		t.Fatal(err)
	}

	s, err := Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	before, _, _ := drain(t, s, Query{})
	if len(before) != 3 {
		t.Fatalf("two-generation store delivers %d faults, want 3 (split run uncollapsed)", len(before))
	}

	stats, err := Compact(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FaultsBefore != 3 || stats.FaultsAfter != 2 {
		t.Fatalf("compact collapsed %d -> %d faults, want 3 -> 2", stats.FaultsBefore, stats.FaultsAfter)
	}
	if stats.SegmentsAfter >= stats.SegmentsBefore {
		t.Fatalf("compact kept %d of %d segments, want fewer", stats.SegmentsAfter, stats.SegmentsBefore)
	}

	s, err = Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	after, _, _ := drain(t, s, Query{})
	if len(after) != 2 {
		t.Fatalf("compacted store delivers %d faults, want 2", len(after))
	}
	var merged *extract.Fault
	for i := range after {
		if after[i].Node == (cluster.NodeID{Blade: 1, SoC: 2}) {
			merged = &after[i]
		}
	}
	if merged == nil {
		t.Fatal("merged run missing")
	}
	if merged.FirstAt != 1000 || merged.LastAt != 1120 || merged.Logs != 8 {
		t.Fatalf("merged run %+v, want FirstAt=1000 LastAt=1120 Logs=8", merged)
	}

	// Stale generation files are gone; only manifest-named segments remain.
	kept := map[string]bool{ManifestName: true}
	for _, e := range s.man.segs {
		kept[e.name] = true
	}
	files := readFiles(t, storeDir)
	for name := range files {
		if !kept[name] {
			t.Fatalf("stale segment %s survived compaction", name)
		}
	}

	// Compaction is idempotent: everything now sits in one generation, so
	// a second pass must be a pure re-bucket even though the merged run's
	// neighbours may fall within the §II-C gap.
	again, err := Compact(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if again.FaultsBefore != again.FaultsAfter {
		t.Fatalf("re-compact changed %d -> %d faults, want a pure re-bucket",
			again.FaultsBefore, again.FaultsAfter)
	}
}

// TestStoreCompactMixedShardCounts: a run split across two ingests with
// different shard counts sits in two shards, and Compact still merges
// it — its merge is store-wide, not per shard.
func TestStoreCompactMixedShardCounts(t *testing.T) {
	ctx := context.Background()
	node := cluster.NodeID{Blade: 1, SoC: 2}
	if shardOf(node, DefaultShards) == shardOf(node, 3) {
		t.Fatalf("node %v falls in shard %d at both shard counts; the test proves nothing", node, shardOf(node, 3))
	}
	head := synthFault(1, 2, 100, 1000, 1050, 5, 0xffffffff, 0xfffffffe)
	tail := synthFault(1, 2, 100, 1080, 1120, 3, 0xffffffff, 0xfffffffe)
	storeDir := t.TempDir()
	if _, err := Ingest(ctx, exportDir(t, []extract.Fault{head}, nil), storeDir); err != nil {
		t.Fatal(err)
	}
	if _, err := Ingest(ctx, exportDir(t, []extract.Fault{tail}, nil), storeDir, WithShards(3)); err != nil {
		t.Fatal(err)
	}

	stats, err := Compact(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FaultsBefore != 2 || stats.FaultsAfter != 1 {
		t.Fatalf("compact collapsed %d -> %d faults, want 2 -> 1", stats.FaultsBefore, stats.FaultsAfter)
	}
	s, err := Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	after, _, _ := drain(t, s, Query{})
	if len(after) != 1 || after[0].FirstAt != 1000 || after[0].LastAt != 1120 || after[0].Logs != 8 {
		t.Fatalf("compacted store %+v, want one run FirstAt=1000 LastAt=1120 Logs=8", after)
	}
	if e := s.man.segs[0]; len(s.man.segs) != 1 || e.shard != shardOf(node, DefaultShards) {
		t.Fatalf("compacted index %+v, want one segment in the head's shard %d", s.man.segs, shardOf(node, DefaultShards))
	}
}

// TestStoreCompactSingleGenerationIsPureRebucket pins the replay
// contract inside compaction: pre-collapsed log lines map to runs
// verbatim, so two same-(node, address, words) faults within the §II-C
// gap that arrived in ONE ingest were deliberately kept separate by the
// original extraction, and Compact must not merge them — only runs split
// across ingest generations may collapse. Export before and after
// compaction must stay byte-identical.
func TestStoreCompactSingleGenerationIsPureRebucket(t *testing.T) {
	ctx := context.Background()
	faults := []extract.Fault{
		synthFault(1, 2, 100, 1000, 1050, 5, 0xffffffff, 0xfffffffe),
		// Same node, address and words, 30 s after the previous run's end:
		// inside the gap, but a separate pre-collapsed line.
		synthFault(1, 2, 100, 1080, 1120, 3, 0xffffffff, 0xfffffffe),
	}
	storeDir := t.TempDir()
	if _, err := Ingest(ctx, exportDir(t, faults, nil), storeDir); err != nil {
		t.Fatal(err)
	}
	before := t.TempDir()
	if err := Export(ctx, storeDir, before, 0); err != nil {
		t.Fatal(err)
	}

	stats, err := Compact(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FaultsBefore != 2 || stats.FaultsAfter != 2 {
		t.Fatalf("single-generation compact changed %d -> %d faults, want 2 -> 2",
			stats.FaultsBefore, stats.FaultsAfter)
	}

	after := t.TempDir()
	if err := Export(ctx, storeDir, after, 0); err != nil {
		t.Fatal(err)
	}
	b, a := readFiles(t, before), readFiles(t, after)
	if len(b) != len(a) {
		t.Fatalf("export changed file set: %d files before, %d after", len(b), len(a))
	}
	for name, data := range b {
		if !bytes.Equal(data, a[name]) {
			t.Fatalf("export of %s changed across a single-generation compact", name)
		}
	}
}

// TestGenFaultKeyCoarsensCompare: compaction's merge orders by
// genFaultKey and calls compareGenFaults only when two keys are equal,
// which reproduces compareGenFaults' order only if key(a) < key(b)
// implies compareGenFaults(a, b) < 0. Every ordered pair of a set whose
// first and last observations tie densely and often invert must satisfy
// it.
func TestGenFaultKeyCoarsensCompare(t *testing.T) {
	var gfs []genFault
	for i := 0; i < 600; i++ {
		first := timebase.T(i * 7 % 64)
		last := first + timebase.T(i*13%50)
		f := synthFault(1+i%3, 1+i%2, uint32(i%5), first, last, 1+i%4, 0xffffffff, ^uint32(1<<(i%32)))
		gfs = append(gfs, genFault{gen: uint32(i % 3), Fault: f})
	}
	ties := 0
	for i := range gfs {
		for j := range gfs {
			a, b := &gfs[i], &gfs[j]
			switch ka, kb := genFaultKey(a), genFaultKey(b); {
			case ka < kb:
				if c := compareGenFaults(a, b); c >= 0 {
					t.Fatalf("key %d < %d but compareGenFaults = %d:\n%+v\n%+v", ka, kb, c, *a, *b)
				}
			case ka == kb && i != j:
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no key ties among the faults")
	}
}

// TestStoreCompactNeverReusesLiveSegmentNames pins the crash-consistency
// contract of compaction: the manifest swap is the commit point, so no
// output segment may take a name the pre-compact manifest references —
// an in-place overwrite before the swap would tear files a crashed-out
// (or concurrently open) store still points at.
func TestStoreCompactNeverReusesLiveSegmentNames(t *testing.T) {
	ctx := context.Background()
	batches := [][]extract.Fault{
		{synthFault(1, 2, 100, 1000, 1050, 5, 0xffffffff, 0xfffffffe)},
		{synthFault(3, 4, 200, 2000, 2010, 2, 0xffffffff, 0xffff7fff)},
	}
	storeDir := t.TempDir()
	for _, b := range batches {
		if _, err := Ingest(ctx, exportDir(t, b, nil), storeDir); err != nil {
			t.Fatal(err)
		}
	}
	before, err := readManifest(context.Background(), iofault.OS, storeDir)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[string]bool, len(before.segs))
	for _, e := range before.segs {
		live[e.name] = true
	}

	if _, err := Compact(storeDir); err != nil {
		t.Fatal(err)
	}
	after, err := readManifest(context.Background(), iofault.OS, storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range after.segs {
		if live[e.name] {
			t.Fatalf("compact wrote %s, a name the live manifest referenced", e.name)
		}
	}
}

// TestStoreWindowPersistence pins that the time-partition length is a
// property of the store, not of the call: Compact re-buckets with the
// window the manifest persists (it used to silently reset a WithWindow
// store to the 30-day default), an additive ingest adopts it, and an
// explicit contradiction is an error.
func TestStoreWindowPersistence(t *testing.T) {
	ctx := context.Background()
	var faults []extract.Fault
	hour := timebase.T(3600)
	for w := 0; w < 4; w++ {
		at := timebase.T(w) * hour
		faults = append(faults, synthFault(1, 2, uint32(w), at, at, 1, 0xffffffff, 0xfffffffe))
	}
	extract.SortFaults(faults)
	storeDir := t.TempDir()
	if _, err := Ingest(ctx, exportDir(t, faults, nil), storeDir,
		WithShards(1), WithWindow(time.Hour)); err != nil {
		t.Fatal(err)
	}

	man, err := readManifest(context.Background(), iofault.OS, storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if man.windowSeconds != 3600 {
		t.Fatalf("manifest persists window %ds, want 3600", man.windowSeconds)
	}

	stats, err := Compact(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsAfter != 4 {
		t.Fatalf("compact re-bucketed into %d segments, want the store's 4 one-hour windows", stats.SegmentsAfter)
	}

	// An additive ingest without WithWindow adopts the stored hour window
	// instead of re-bucketing new data at the 30-day default.
	more := []extract.Fault{synthFault(1, 2, 99, 5*hour, 5*hour, 1, 0xffffffff, 0xfffffffe)}
	if _, err := Ingest(ctx, exportDir(t, more, nil), storeDir, WithShards(1)); err != nil {
		t.Fatal(err)
	}
	man, err = readManifest(context.Background(), iofault.OS, storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if man.windowSeconds != 3600 {
		t.Fatalf("additive ingest changed the window to %ds, want 3600", man.windowSeconds)
	}
	for _, e := range man.segs {
		if e.nFaults == 1 && e.minAt == 5*hour && e.window != 5 {
			t.Fatalf("additive ingest bucketed the new fault into window %d, want hour window 5", e.window)
		}
	}

	// An explicit WithWindow that contradicts the store is an error.
	if _, err := Ingest(ctx, exportDir(t, more, nil), storeDir, WithWindow(2*time.Hour)); err == nil ||
		!strings.Contains(err.Error(), "window") {
		t.Fatalf("conflicting WithWindow error %v, want a window mismatch", err)
	}
}

// TestStoreCodecCorruption pins the decoder's refusal to half-trust
// damaged storage: bad magic, flipped payload bytes, inconsistent counts
// and invalid flags are all hard errors, never silent data.
func TestStoreCodecCorruption(t *testing.T) {
	faults := []extract.Fault{synthFault(1, 2, 7, 100, 200, 3, 0xffffffff, 0xfffffffe)}
	sessions := []eventlog.Session{{Host: cluster.NodeID{Blade: 1, SoC: 2}, From: 50, To: 300, AllocBytes: 1 << 20}}
	data := encodeSegment(0, 0, faults, sessions)

	if p, err := decodeSegment(data); err != nil {
		t.Fatal(err)
	} else if len(p.faults) != 1 || p.faults[0] != faults[0] || len(p.sessions) != 1 || p.sessions[0] != sessions[0] {
		t.Fatalf("clean decode mangled the payload: %+v", p)
	}

	reseal := func(body []byte) []byte {
		return le.AppendUint32(slices.Clone(body), crc32.Checksum(body, crcTable))
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"short", data[:10], "shorter than header"},
		{"magic", reseal(append([]byte("XXS1"), data[4:len(data)-4]...)), "bad magic"},
		{"flipped byte", func() []byte {
			bad := slices.Clone(data)
			bad[segHeaderLen] ^= 0x40
			return bad
		}(), "CRC mismatch"},
		{"count mismatch", func() []byte {
			body := slices.Clone(data[:len(data)-4])
			le.PutUint32(body[32:], 2) // claim 2 faults in a 1-fault body
			return reseal(body)
		}(), "want"},
		{"truncation flag", func() []byte {
			body := slices.Clone(data[:len(data)-4])
			body[len(body)-1] = 7 // the flag column is the segment's tail
			return reseal(body)
		}(), "truncation flag"},
	}
	for _, tc := range cases {
		_, err := decodeSegment(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}

	man := encodeManifest(&manifest{segs: []segMeta{{name: "seg", nodes: []cluster.NodeID{{Blade: 1, SoC: 2}}}}})
	if _, err := decodeManifest(man); err != nil {
		t.Fatal(err)
	}
	badMan := slices.Clone(man)
	badMan[8] ^= 1
	if _, err := decodeManifest(badMan); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("manifest corruption error %v, want CRC mismatch", err)
	}
	if _, err := decodeManifest(man[:5]); err == nil {
		t.Fatal("truncated manifest accepted")
	}

	// A CRC-valid manifest whose declared count dwarfs its body must fail
	// on the entry checks, not attempt a multi-hundred-GB preallocation.
	hugeCount := slices.Clone(man[:len(man)-4])
	le.PutUint32(hugeCount[12:], 0xfffffff0)
	hugeCount = le.AppendUint32(hugeCount, crc32.Checksum(hugeCount, crcTable))
	if _, err := decodeManifest(hugeCount); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("inflated segment count error %v, want truncated entry", err)
	}
}

// segmentReads wraps an FS and counts the segment reads in flight and
// their high-water mark. Armed, it holds the segment reads until
// iofault.MaxOpen of them are in flight, then a moment longer, so a
// read that skipped the descriptor ceiling would be in flight beside
// them.
type segmentReads struct {
	iofault.FS
	mu             sync.Mutex
	inFlight, peak int
	release        chan struct{} // nil: reads are not held
	once           sync.Once
	onRead         func() // runs as each segment read starts, if set
}

func (c *segmentReads) ReadFile(name string) ([]byte, error) {
	if !strings.HasSuffix(name, ".seg") {
		return c.FS.ReadFile(name)
	}
	c.mu.Lock()
	c.inFlight++
	c.peak = max(c.peak, c.inFlight)
	full := c.inFlight >= iofault.MaxOpen
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.inFlight--
		c.mu.Unlock()
	}()
	if c.onRead != nil {
		c.onRead()
	}
	if c.release != nil {
		if full {
			c.once.Do(func() { time.AfterFunc(50*time.Millisecond, func() { close(c.release) }) })
		}
		<-c.release
	}
	return c.FS.ReadFile(name)
}

// TestStoreThousandSegmentFDBudget is the descriptor-ceiling regression
// test: a query fanning out over 1000 segments on twice as many workers
// as iofault.MaxOpen allows must hold MaxOpen segment reads at once, and
// never more.
func TestStoreThousandSegmentFDBudget(t *testing.T) {
	dir := t.TempDir()
	const segments = 1000
	out := make(cells)
	for i := 0; i < segments; i++ {
		f := synthFault(i%30+1, i%14+1, uint32(i), timebase.T(i*100), timebase.T(i*100), 1, 0xffffffff, 0xfffffffe)
		out[bucketKey{uint32(i % 8), int64(i)}] = &cell{faults: [][]extract.Fault{{f}}}
	}
	if _, err := commit(context.Background(), iofault.OS, dir, &manifest{}, 0, out, 0); err != nil {
		t.Fatal(err)
	}

	reads := &segmentReads{FS: iofault.OS, release: make(chan struct{})}
	s, err := Open(dir, WithStoreFS(reads))
	if err != nil {
		t.Fatal(err)
	}
	faults, _, _ := drain(t, s, Query{Workers: 2 * iofault.MaxOpen})
	if len(faults) != segments {
		t.Fatalf("query returned %d faults, want %d", len(faults), segments)
	}
	if !slices.IsSortedFunc(faults, func(a, b extract.Fault) int { return extract.Compare(&a, &b) }) {
		t.Fatal("merged delivery is not in canonical order")
	}
	if reads.peak != iofault.MaxOpen {
		t.Fatalf("query held %d segment reads at once, want the ceiling %d", reads.peak, iofault.MaxOpen)
	}
	if opened := s.SegmentsOpened(); opened != segments {
		t.Fatalf("opened %d segments, want all %d (no predicate)", opened, segments)
	}
}

// TestCommitCancelled: a cancelled ctx stops commit's build pool before
// it writes anything, and no worker outlives the call.
func TestCommitCancelled(t *testing.T) {
	dir := t.TempDir()
	out := make(cells)
	for i := 0; i < 4; i++ {
		f := synthFault(1, i+1, uint32(i), timebase.T(i*100), timebase.T(i*100), 1, 0xffffffff, 0xfffffffe)
		out[bucketKey{uint32(i), 0}] = &cell{faults: [][]extract.Fault{{f}}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	baseline := runtime.NumGoroutine()
	if _, err := commit(ctx, iofault.OS, dir, &manifest{}, 0, out, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("commit returned %v, want context.Canceled", err)
	}
	if files := readFiles(t, dir); len(files) != 0 {
		t.Fatalf("cancelled commit left %d files", len(files))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStoreIngestOptionValidation pins the option errors.
func TestStoreIngestOptionValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Ingest(ctx, t.TempDir(), t.TempDir(), WithShards(0)); err == nil {
		t.Fatal("WithShards(0) accepted")
	}
	if _, err := Ingest(ctx, t.TempDir(), t.TempDir(), WithWindow(time.Millisecond)); err == nil {
		t.Fatal("sub-second window accepted")
	}
	if _, err := Ingest(ctx, t.TempDir(), t.TempDir(), WithIngestWorkers(-1)); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("Open of an empty directory succeeded")
	}
}

// TestStoreQueryCancellation pins leak-free wind-down: a context
// cancelled as the first segment read starts must surface ctx.Err(), and
// no segment read may still be in flight once the query returns.
func TestStoreQueryCancellation(t *testing.T) {
	var faults []extract.Fault
	for i := 0; i < 50; i++ {
		faults = append(faults, synthFault(i%6+1, 2, uint32(i), timebase.T(i*3600), timebase.T(i*3600), 1, 0xffffffff, 0xfffffffe))
	}
	extract.SortFaults(faults)
	storeDir := t.TempDir()
	if _, err := Ingest(context.Background(), exportDir(t, faults, nil), storeDir,
		WithShards(4), WithWindow(time.Hour)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reads := &segmentReads{FS: iofault.OS, onRead: cancel}
	s, err := Open(storeDir, WithStoreFS(reads))
	if err != nil {
		t.Fatal(err)
	}
	var last error
	for _, err := range s.Events(ctx, Query{Workers: 4}) {
		last = err
	}
	if last != context.Canceled {
		t.Fatalf("cancelled query ended with %v, want context.Canceled", last)
	}
	if reads.peak == 0 {
		t.Fatal("no segment read started")
	}
	if reads.inFlight != 0 {
		t.Fatalf("%d segment reads still in flight after the cancelled query returned", reads.inFlight)
	}
}
