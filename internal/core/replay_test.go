package core

import (
	"bytes"
	"context"
	"testing"

	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/logstore"
	"unprotected/internal/rng"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

// replayFixture builds a small synthetic dataset with a controller node,
// simultaneity groups and a multi-bit mix — enough structure for every
// report section to render non-trivially.
func replayFixture() ([]eventlog.Session, []extract.Fault, string) {
	r := rng.New(17)
	const controller = "02-04"
	controllerID := cluster.NodeID{Blade: 2, SoC: 4}
	day := timebase.T(86400)
	var faults []extract.Fault
	var sessions []eventlog.Session
	for n := 0; n < 18; n++ {
		host := cluster.NodeID{Blade: n/6 + 1, SoC: n%6 + 1}
		if n == 7 {
			host = controllerID
		}
		for i := 0; i < 30; i++ {
			at := day*timebase.T(10+i*4) + timebase.T((i%5)*13)
			temp := thermal.NoReading
			if i%3 != 0 {
				temp = 22 + r.Float64()*40
			}
			mask := uint32(1) << (i % 32)
			if i%8 == 0 {
				mask |= 1 << ((i + 9) % 32)
			}
			faults = append(faults, extract.Classify(extract.RawRun{
				Node: host, Addr: dram.Addr(i * 13), FirstAt: at, LastAt: at + timebase.T(r.IntN(90)),
				Logs: 1 + r.IntN(25), Expected: 0xffffffff, Actual: 0xffffffff ^ mask,
				TempC: temp,
			}))
		}
		for s := 0; s < 8; s++ {
			from := day*timebase.T(2*s) + timebase.T(r.IntN(3000))
			sess := eventlog.Session{Host: host, From: from, To: from + 5*3600, AllocBytes: 3 << 30}
			if s == 5 {
				sess.Truncated = true
				sess.To = 0
			}
			sessions = append(sessions, sess)
		}
	}
	extract.SortFaults(faults)
	return sessions, faults, controller
}

// logStudy replays dir through Analyze(Logs) with the given controller
// and loader pool size.
func logStudy(t *testing.T, dir, controller string, workers int) *Study {
	t.Helper()
	study, err := Analyze(context.Background(), Logs(dir, WithController(controller), WithWorkers(workers)))
	if err != nil {
		t.Fatal(err)
	}
	return study
}

// TestStudyFromLogsDeterministicAcrossWorkers: the acceptance criterion —
// the -from-logs report must be byte-identical for every loader pool size
// and across repeated runs.
func TestStudyFromLogsDeterministicAcrossWorkers(t *testing.T) {
	sessions, faults, controller := replayFixture()
	dir := t.TempDir()
	if err := logstore.Export(sessions, faults, dir); err != nil {
		t.Fatal(err)
	}
	var ref []byte
	for _, workers := range []int{1, 1, 2, 4, 16} {
		study := logStudy(t, dir, controller, workers)
		var buf bytes.Buffer
		study.FullReport(&buf, ReportOptions{Charts: true, Heatmaps: true})
		if ref == nil {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(ref, buf.Bytes()) {
			t.Fatalf("workers=%d: report differs from reference", workers)
		}
	}
}

// TestStudyFromLogsMatchesCampaignStudy: exporting a full campaign and
// replaying it must reproduce the campaign study's fault-derived report
// sections. Raw-volume lines differ by design (the extracted export does
// not carry the pathological node's uncharacterized raw flood), so the
// comparison is at the figure level, not the whole report.
func TestStudyFromLogsMatchesCampaignStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	cfg := campaign.DefaultConfig(11)
	mem, err := Analyze(context.Background(), Simulate(cfg))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := logstore.Export(mem.Dataset.Sessions, mem.Dataset.Faults, dir); err != nil {
		t.Fatal(err)
	}
	replayed := logStudy(t, dir, cfg.Profile.ControllerNode.String(), 0)

	if got, want := len(replayed.Dataset.Faults), len(mem.Dataset.Faults); got != want {
		t.Fatalf("faults %d, want %d", got, want)
	}
	for i := range replayed.Dataset.Faults {
		if replayed.Dataset.Faults[i] != mem.Dataset.Faults[i] {
			t.Fatalf("fault %d differs after round trip", i)
		}
	}
	if *replayed.Figures.HourOfDay != *mem.Figures.HourOfDay {
		t.Fatal("hour-of-day figure differs after round trip")
	}
	if replayed.Figures.MultiBit.Stats() != mem.Figures.MultiBit.Stats() {
		t.Fatal("multi-bit stats differ after round trip")
	}
	if replayed.Figures.Simultaneity.Stats() != mem.Figures.Simultaneity.Stats() {
		t.Fatal("simultaneity stats differ after round trip")
	}
	gotReg, wantReg := replayed.Figures.Regimes.Finish(), mem.Figures.Regimes.Finish()
	if gotReg.NormalDays != wantReg.NormalDays || gotReg.DegradedErrors != wantReg.DegradedErrors {
		t.Fatal("regime split differs after round trip")
	}
	// Session-derived accounting: hours/TBh survive (truncated sessions
	// contribute zero either way).
	gotH := replayed.Figures.Headline.Headline(0, nil, nil)
	wantH := mem.Figures.Headline.Headline(0, nil, nil)
	if gotH.NodeHours != wantH.NodeHours || gotH.TotalTBh != wantH.TotalTBh {
		t.Fatalf("session accounting differs: %v/%v vs %v/%v",
			gotH.NodeHours, gotH.TotalTBh, wantH.NodeHours, wantH.TotalTBh)
	}
}
