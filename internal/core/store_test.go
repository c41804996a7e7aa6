package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"unprotected/internal/campaign"
	"unprotected/internal/faultstore"
	"unprotected/internal/logstore"
	"unprotected/internal/timebase"
)

// ingestFixtureStore exports the replay fixture as text logs and ingests
// them into a fresh store, returning both directories.
func ingestFixtureStore(t *testing.T) (logDir, storeDir string) {
	t.Helper()
	sessions, faults, _ := replayFixture()
	logDir = t.TempDir()
	if err := logstore.Export(sessions, faults, logDir); err != nil {
		t.Fatal(err)
	}
	storeDir = t.TempDir()
	if _, err := faultstore.Ingest(context.Background(), logDir, storeDir); err != nil {
		t.Fatal(err)
	}
	return logDir, storeDir
}

// TestStoreMatchesLogsReportFixture: the store source must be report
// byte-identical to replaying the text logs it was ingested from — the
// binary store changes the query cost, never the analysis.
func TestStoreMatchesLogsReportFixture(t *testing.T) {
	ctx := context.Background()
	logDir, storeDir := ingestFixtureStore(t)
	fromLogs, err := Analyze(ctx, Logs(logDir, WithController("02-04")))
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := Analyze(ctx, Store(storeDir, WithController("02-04")))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	fromLogs.FullReport(&a, ReportOptions{Charts: true, Heatmaps: true})
	fromStore.FullReport(&b, ReportOptions{Charts: true, Heatmaps: true})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Analyze(Store) report diverges from Analyze(Logs)")
	}
}

// TestStoreMatchesLogsReportCampaign is the full-scale acceptance run:
// the seed-42 campaign, exported, ingested, and analyzed through both
// sources, must render byte-identical reports.
func TestStoreMatchesLogsReportCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	ctx := context.Background()
	sim, err := Analyze(ctx, Simulate(campaign.DefaultConfig(42)))
	if err != nil {
		t.Fatal(err)
	}
	logDir := t.TempDir()
	if err := logstore.Export(sim.Dataset.Sessions, sim.Dataset.Faults, logDir); err != nil {
		t.Fatal(err)
	}
	storeDir := t.TempDir()
	if _, err := faultstore.Ingest(ctx, logDir, storeDir); err != nil {
		t.Fatal(err)
	}
	fromLogs, err := Analyze(ctx, Logs(logDir, WithController("02-04")))
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := Analyze(ctx, Store(storeDir, WithController("02-04")))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	fromLogs.FullReport(&a, ReportOptions{Charts: true})
	fromStore.FullReport(&b, ReportOptions{Charts: true})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("seed-42: Analyze(Store) report diverges from Analyze(Logs)")
	}
}

// TestStorePredicates drives WithNodes/WithTimeRange through Analyze:
// the store source honors them, the other sources reject them.
func TestStorePredicates(t *testing.T) {
	ctx := context.Background()
	_, storeDir := ingestFixtureStore(t)

	study, err := Analyze(ctx, Store(storeDir, WithController("02-04")), WithNodes("01-02"))
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Dataset.Faults) == 0 {
		t.Fatal("node-filtered store delivered no faults")
	}
	for _, f := range study.Dataset.Faults {
		if f.Node.Blade != 1 || f.Node.SoC != 2 {
			t.Fatalf("WithNodes leaked fault of %v", f.Node)
		}
	}

	full, err := Analyze(ctx, Store(storeDir))
	if err != nil {
		t.Fatal(err)
	}
	lo := full.Dataset.Faults[0].FirstAt
	hi := full.Dataset.Faults[len(full.Dataset.Faults)-1].FirstAt
	mid := (lo + hi) / 2
	ranged, err := Analyze(ctx, Store(storeDir,
		WithTimeRange(lo.Time(), mid.Time())))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ranged.Dataset.Faults); n == 0 || n >= len(full.Dataset.Faults) {
		t.Fatalf("time-ranged store delivered %d of %d faults", n, len(full.Dataset.Faults))
	}
	for _, f := range ranged.Dataset.Faults {
		if f.FirstAt < lo || f.FirstAt >= mid {
			t.Fatalf("WithTimeRange leaked fault at %v", f.FirstAt)
		}
	}

	// The other sources reject predicates descriptively.
	if _, err := Analyze(ctx, Simulate(campaign.DefaultConfig(1)), WithNodes("01-02")); err == nil ||
		!strings.Contains(err.Error(), "Store source") {
		t.Fatalf("Simulate accepted WithNodes: %v", err)
	}
	logDir := t.TempDir()
	if _, err := Analyze(ctx, Logs(logDir), WithNodes("01-02")); err == nil ||
		!strings.Contains(err.Error(), "Store source") {
		t.Fatalf("Logs accepted WithNodes: %v", err)
	}
	if _, err := Analyze(ctx, Logs(logDir, WithNodes("01-02"))); err == nil ||
		!strings.Contains(err.Error(), "Store source") {
		t.Fatalf("Logs constructor accepted WithNodes: %v", err)
	}

	// Invalid predicate values are reported before the stream starts.
	if _, err := Analyze(ctx, Store(storeDir), WithNodes()); err == nil {
		t.Fatal("empty WithNodes accepted")
	}
	if _, err := Analyze(ctx, Store(storeDir), WithNodes("not-a-node")); err == nil {
		t.Fatal("unparseable node accepted")
	}
	now := timebase.T(0).Time()
	if _, err := Analyze(ctx, Store(storeDir), WithTimeRange(now, now)); err == nil {
		t.Fatal("empty time range accepted")
	}
	if _, err := Analyze(ctx, Store(storeDir, WithTimeRange(now, now.Add(time.Hour))),
		WithTimeRange(now, now.Add(time.Hour))); err == nil {
		t.Fatal("double WithTimeRange accepted")
	}
	// Two node restrictions are a conflict, never a silent union: the old
	// append widened Store(WithNodes("01-02")) to deliver both nodes.
	if _, err := Analyze(ctx, Store(storeDir, WithNodes("01-02")), WithNodes("02-02")); err == nil ||
		!strings.Contains(err.Error(), "WithNodes") {
		t.Fatalf("double WithNodes error %v, want a conflict", err)
	}
}

// TestStoreDegraded drives WithDegraded through Analyze: a corrupt
// segment fails the default strict analysis, is skipped (and accounted
// in the health report) under WithDegraded, and the option is rejected
// by the other sources and by double application.
func TestStoreDegraded(t *testing.T) {
	ctx := context.Background()
	_, storeDir := ingestFixtureStore(t)

	full, err := Analyze(ctx, Store(storeDir, WithController("02-04")))
	if err != nil {
		t.Fatal(err)
	}

	segs, err := faultstore.Fsck(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if segs.SegmentsChecked < 2 {
		t.Fatalf("fixture store has %d segments, want several", segs.SegmentsChecked)
	}
	corruptOneSegment(t, storeDir)

	if _, err := Analyze(ctx, Store(storeDir, WithController("02-04"))); err == nil {
		t.Fatal("strict analysis of a corrupt store must fail")
	}

	h := &StoreHealth{}
	degraded, err := Analyze(ctx, Store(storeDir, WithController("02-04")), WithDegraded(h))
	if err != nil {
		t.Fatalf("degraded analysis failed: %v", err)
	}
	if h.Clean() || len(h.Skipped()) != 1 {
		t.Fatalf("health report = %v, want one skipped segment", h.Skipped())
	}
	if got := len(degraded.Dataset.Faults) + h.LostFaults(); got != len(full.Dataset.Faults) {
		t.Fatalf("delivered+lost = %d faults, want %d", got, len(full.Dataset.Faults))
	}

	// The option is store-only and single-application, like the predicates.
	if _, err := Analyze(ctx, Simulate(campaign.DefaultConfig(1)), WithDegraded(nil)); err == nil ||
		!strings.Contains(err.Error(), "Store source") {
		t.Fatalf("Simulate accepted WithDegraded: %v", err)
	}
	if _, err := Analyze(ctx, Logs(t.TempDir(), WithDegraded(nil))); err == nil ||
		!strings.Contains(err.Error(), "Store source") {
		t.Fatalf("Logs accepted WithDegraded: %v", err)
	}
	if _, err := Analyze(ctx, Store(storeDir, WithDegraded(h)), WithDegraded(h)); err == nil ||
		!strings.Contains(err.Error(), "WithDegraded") {
		t.Fatalf("double WithDegraded error %v, want a conflict", err)
	}
}

// corruptOneSegment flips a byte in the middle of one segment file.
func corruptOneSegment(t *testing.T, storeDir string) {
	t.Helper()
	entries, err := os.ReadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		path := filepath.Join(storeDir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no segment file found")
}

// TestStoreSourceReuse pins that Analyze options never mutate a
// reusable Store source: a predicate applied in one call must not
// narrow the next.
func TestStoreSourceReuse(t *testing.T) {
	ctx := context.Background()
	_, storeDir := ingestFixtureStore(t)
	src := Store(storeDir)
	filtered, err := Analyze(ctx, src, WithNodes("01-02"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Analyze(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Dataset.Faults) <= len(filtered.Dataset.Faults) {
		t.Fatalf("source retained a prior call's predicate: %d <= %d faults",
			len(full.Dataset.Faults), len(filtered.Dataset.Faults))
	}
}
