package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unprotected/internal/logstore"
)

// csvFixtureStudy replays the replay fixture: 18 faults on each of study
// days 10, 14, ..., 126, two of them on the controller node 02-04.
func csvFixtureStudy(t *testing.T) *Study {
	t.Helper()
	sessions, faults, controller := replayFixture()
	dir := t.TempDir()
	if err := logstore.Export(sessions, faults, dir); err != nil {
		t.Fatal(err)
	}
	return logStudy(t, dir, controller, 0)
}

func TestWriteCSVs(t *testing.T) {
	dir := t.TempDir()
	if err := csvFixtureStudy(t).WriteCSVs(dir); err != nil {
		t.Fatal(err)
	}
	read := func(name string) string {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return string(data)
	}
	for _, name := range []string{
		"fig1_hours.csv", "fig2_tbh.csv", "fig3_errors.csv",
		"fig4_simultaneity.csv", "fig5_fig6_hour_of_day.csv",
		"fig7_fig8_temperature.csv", "fig9_fig10_fig11_daily.csv",
		"fig12_top_nodes.csv", "fig13_regimes.csv",
		"table1_multibit.csv", "table2_quarantine.csv",
	} {
		if lines := strings.Split(strings.TrimSpace(read(name)), "\n"); len(lines) < 2 {
			t.Fatalf("%s has no data rows", name)
		}
	}

	// Fig 13: every fault day is degraded, 16 errors once the controller
	// node is excluded.
	fig13 := read("fig13_regimes.csv")
	if n := strings.Count(fig13, ",degraded,"); n != 30 {
		t.Errorf("fig13 has %d degraded days, want 30", n)
	}
	if !strings.Contains(fig13, "\n10,2015-02-11,degraded,16\n") {
		t.Errorf("fig13 content wrong:\n%s", fig13[:min(len(fig13), 300)])
	}
	// Table I carries the fixture's double-bit pattern (bits 0 and 9).
	if !strings.Contains(read("table1_multibit.csv"), ",0xffffffff,0xfffffdfe,") {
		t.Error("table1 missing the double-bit pattern")
	}
	// Table II: one row per period; no quarantine keeps all 480 errors.
	table2 := read("table2_quarantine.csv")
	if !strings.HasPrefix(table2, "quarantine_days,errors,node_days,mtbf_hours\n0,480,0,") {
		t.Errorf("table2 content wrong:\n%s", table2)
	}
	if n := strings.Count(table2, "\n"); n != 8 {
		t.Errorf("table2 has %d lines, want a header and 7 periods", n)
	}
}

func TestWriteCSVsBadDir(t *testing.T) {
	if err := csvFixtureStudy(t).WriteCSVs("/dev/null/not-a-dir"); err == nil {
		t.Fatal("impossible directory accepted")
	}
}
