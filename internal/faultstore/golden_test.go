package faultstore

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/kway"
	"unprotected/internal/logstore"
	"unprotected/internal/timebase"
)

// goldenDataset is the golden tests' fixture: the default seed-1916
// campaign on blades 1–3 (the differential matrix's replayed campaign),
// merged into the canonical orders. It skips the test off amd64, where
// the compiler may fuse a multiply and an add and move a simulated value.
func goldenDataset(t *testing.T) ([]extract.Fault, []eventlog.Session) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("digest pinned on amd64")
	}
	cfg := campaign.DefaultConfig(1916)
	for _, node := range cfg.Topo.Nodes {
		if node.ID.Blade > 3 && node.Role == cluster.Scanned {
			node.Role = cluster.Excluded
		}
	}
	p, err := campaign.Parts(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return kway.Merge(p.Faults, extract.Key, extract.Compare),
		kway.Merge(p.Sessions, eventlog.SessionKey, eventlog.CompareSessions)
}

// storeDigest is the sha256 of the `sha256sum` listing of a store's
// MANIFEST and every segment, names in byte order.
func storeDigest(t *testing.T, storeDir string) string {
	t.Helper()
	files := readFiles(t, storeDir)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	slices.Sort(names)
	listing := sha256.New()
	for _, name := range names {
		fmt.Fprintf(listing, "%x  %s\n", sha256.Sum256(files[name]), name)
	}
	return fmt.Sprintf("%x", listing.Sum(nil))
}

// TestIngestGolden pins the bytes Ingest writes. The round trips compare
// exported text, and FuzzSegmentRoundTrip covers the codec, so neither
// sees a change in bucketing, segment order or manifest layout that
// reads back the same. The fixture's export is ingested with the default
// shards and window, at the default worker count and at one and three
// workers: the segments are the same bytes however many build them.
func TestIngestGolden(t *testing.T) {
	faults, sessions := goldenDataset(t)
	logs := filepath.Join(t.TempDir(), "logs")
	if err := logstore.Export(sessions, faults, logs); err != nil {
		t.Fatal(err)
	}
	const want = "1754f6deeecc8b574d48693cd1da02d2c7b779e7571409fa102e913c15808a0c"
	for _, opts := range [][]IngestOption{nil, {WithIngestWorkers(1)}, {WithIngestWorkers(3)}} {
		storeDir := t.TempDir()
		if _, err := Ingest(context.Background(), logs, storeDir, opts...); err != nil {
			t.Fatal(err)
		}
		if got := storeDigest(t, storeDir); got != want {
			t.Fatalf("%d options: sha256 %s, want %s", len(opts), got, want)
		}
	}
}

// TestCompactGolden pins the bytes Compact writes, which the compaction
// tests otherwise see only through exports and counts. The fixture is
// split by time (faults by FirstAt, sessions by From) into two exports,
// ingested as two generations at 4 and then 8 shards, and compacted.
// Split at the campaign's midpoint, the midpoint's window holds segments
// of both generations in shards 0–3, which Compact merges (92 segments
// become 88), but the fixture's faults, all on the controller node
// 02-04, fall after the midpoint. Split at the median fault, both
// generations hold faults of that node in one cell, so the store-wide
// fault merge interleaves two generations too (84 segments become 80).
func TestCompactGolden(t *testing.T) {
	faults, sessions := goldenDataset(t)
	for _, c := range []struct {
		name  string
		split timebase.T
		want  string
	}{
		{"campaign midpoint", timebase.T(timebase.StudySeconds / 2), "cfbdc10e25cada6fb855ecdda9f05da2ad0da1431f9edd0724d4dc235bf63086"},
		{"median fault", faults[len(faults)/2].FirstAt, "d54d0df27d7335c618276010e3d2cb80138d4ceec3543f30c497761de0fb3c23"},
	} {
		var faultHalves [2][]extract.Fault
		var sessionHalves [2][]eventlog.Session
		for _, f := range faults {
			half := 0
			if f.FirstAt >= c.split {
				half = 1
			}
			faultHalves[half] = append(faultHalves[half], f)
		}
		for _, s := range sessions {
			half := 0
			if s.From >= c.split {
				half = 1
			}
			sessionHalves[half] = append(sessionHalves[half], s)
		}
		dir := t.TempDir()
		storeDir := filepath.Join(dir, "store")
		for i, shards := range []int{4, 8} {
			logs := filepath.Join(dir, fmt.Sprintf("logs%d", i))
			if err := logstore.Export(sessionHalves[i], faultHalves[i], logs); err != nil {
				t.Fatal(err)
			}
			if _, err := Ingest(context.Background(), logs, storeDir, WithShards(shards)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Compact(storeDir); err != nil {
			t.Fatal(err)
		}
		if got := storeDigest(t, storeDir); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
