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
)

// TestIngestGolden pins the bytes Ingest writes. The round trips compare
// exported text, and FuzzSegmentRoundTrip covers the codec, so neither
// sees a change in bucketing, segment order or manifest layout that
// reads back the same. The fixture is the export of the default seed-1916
// campaign on blades 1–3 (the differential matrix's replayed campaign),
// ingested with the default shards and window. The
// digest is the sha256 of the `sha256sum` listing of MANIFEST and every
// segment, names in byte order. Skipped off amd64, where the compiler may
// fuse a multiply and an add and move a simulated value.
func TestIngestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest pinned on amd64")
	}
	cfg := campaign.DefaultConfig(1916)
	for _, node := range cfg.Topo.Nodes {
		if node.ID.Blade > 3 && node.Role == cluster.Scanned {
			node.Role = cluster.Excluded
		}
	}
	ctx := context.Background()
	p, err := campaign.Parts(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	logs, storeDir := filepath.Join(dir, "logs"), filepath.Join(dir, "store")
	if err := logstore.Export(kway.Merge(p.Sessions, eventlog.SessionKey, eventlog.CompareSessions),
		kway.Merge(p.Faults, extract.Key, extract.Compare), logs); err != nil {
		t.Fatal(err)
	}
	if _, err := Ingest(ctx, logs, storeDir); err != nil {
		t.Fatal(err)
	}
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
	const want = "1754f6deeecc8b574d48693cd1da02d2c7b779e7571409fa102e913c15808a0c"
	if got := fmt.Sprintf("%x", listing.Sum(nil)); got != want {
		t.Fatalf("%d files, sha256 %s, want %s", len(names), got, want)
	}
}
