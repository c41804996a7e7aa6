package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"unprotected/internal/logstore"
)

// TestSeed42Golden pins the seed-42 outputs by their sha256: the
// simulated study's report with charts and heat maps and its default
// report, its Figs 1–2 CSVs, and the charts-and-heat-maps report of a
// replay of its log export with 02-04 excluded. The differential tests
// compare routes with each other, so a digit that moves on every route at
// once passes them; this test does not let it. Skipped under -short, and
// off amd64, where the compiler may fuse a multiply and an add and move a
// last digit.
func TestSeed42Golden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64")
	}
	s := sharedStudy(t)
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	report := func(s *Study, opt ReportOptions) string {
		var buf bytes.Buffer
		s.FullReport(&buf, opt)
		return digest(buf.Bytes())
	}
	dir := t.TempDir()
	csvDir, logDir := filepath.Join(dir, "csv"), filepath.Join(dir, "logs")
	if err := s.WriteCSVs(csvDir); err != nil {
		t.Fatal(err)
	}
	csv := func(name string) string {
		b, err := os.ReadFile(filepath.Join(csvDir, name))
		if err != nil {
			t.Fatal(err)
		}
		return digest(b)
	}
	if err := logstore.Export(s.Dataset.Sessions, s.Dataset.Faults, logDir); err != nil {
		t.Fatal(err)
	}
	replay, err := Analyze(context.Background(), Logs(logDir), WithController("02-04"))
	if err != nil {
		t.Fatal(err)
	}
	all := ReportOptions{Charts: true, Heatmaps: true}
	for _, c := range []struct{ name, got, want string }{
		{"report with charts and heat maps", report(s, all), "2553d25cd663876428332b44c6c9727e8982a1009ffd4bc265ad4b11f6f09e46"},
		{"default report", report(s, ReportOptions{}), "652bb92c5790f7583e92424f7b5ea2caa38f0e27b462c6a663876867e35cba8c"},
		{"fig1_hours.csv", csv("fig1_hours.csv"), "1ce9ea45bcea229e77458e1848c785d5417676ffa08eb73f7a4ef4cec61a64e2"},
		{"fig2_tbh.csv", csv("fig2_tbh.csv"), "6d717396a7ba55943e5089914716b4754b2b61e936108d05c77cff550a96307b"},
		{"replay report with charts and heat maps", report(replay, all), "5f33f39455a8dc802e3f054220acb7692524014a648c3f42fc76fc14c60ab4e7"},
	} {
		if c.got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, c.got, c.want)
		}
	}
}
