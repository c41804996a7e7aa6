package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"unprotected/internal/analysis"
	"unprotected/internal/quarantine"
)

var (
	studyOnce sync.Once
	study     *Study
)

// sharedStudy runs the full-scale calibrated campaign once per test binary.
func sharedStudy(t *testing.T) *Study {
	t.Helper()
	if testing.Short() {
		t.Skip("full campaign")
	}
	studyOnce.Do(func() { study = RunPaperStudy(42) })
	return study
}

func TestStudyHeadlineBands(t *testing.T) {
	s := sharedStudy(t)
	h := s.Headline()

	check := func(name string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %v, want [%v, %v]", name, got, lo, hi)
		}
	}
	// §III-B magnitudes.
	check("raw logs (M)", float64(h.RawLogs)/1e6, 21, 30)
	check("worst-node raw share", h.TopNodeRawShare, 0.96, 1.0)
	check("independent faults (k)", float64(h.IndependentFaults)/1e3, 45, 70)
	check("multi-bit word faults", float64(h.MultiBitFaults), 65, 105)
	check("node-hours (M)", float64(h.NodeHours)/1e6, 3.8, 4.6)
	check("TBh", float64(h.TotalTBh), 10500, 13500)
	check("cluster cadence (min)", h.ClusterMTBFMinutes, 7, 14)
	check("1->0 fraction", h.Ones2ZerosFraction(), 0.85, 0.93)
}

func TestStudyMultiBitShape(t *testing.T) {
	s := sharedStudy(t)
	st := s.MultiBitStats()
	if st.OverThreeBits != 7 {
		t.Errorf(">3-bit events = %d, want 7", st.OverThreeBits)
	}
	if st.MaxBits != 9 {
		t.Errorf("largest word corruption = %d bits, want 9", st.MaxBits)
	}
	if st.MaxGap > 12 || st.MaxGap < 8 {
		t.Errorf("max bit gap = %d, paper saw 11", st.MaxGap)
	}
	if st.NonConsecutive <= st.TotalEvents/2 {
		t.Errorf("only %d/%d non-consecutive; the majority must be non-adjacent",
			st.NonConsecutive, st.TotalEvents)
	}
	// Isolated SDC structure (§III-D).
	sdc := analysis.ComputeIsolatedSDC(s.Dataset)
	if len(sdc.Events) != 7 || sdc.NodesInvolved != 5 {
		t.Errorf("isolated SDC: %d events on %d nodes, want 7 on 5",
			len(sdc.Events), sdc.NodesInvolved)
	}
	if sdc.NearSoC12Nodes != 4 {
		t.Errorf("near-SoC12 nodes = %d, want 4", sdc.NearSoC12Nodes)
	}
	if sdc.FullyIsolated != 7 {
		t.Errorf("detectable-uncorrelated events = %d, want all 7", sdc.FullyIsolated)
	}
	if sdc.OnlyErrorOnNode != 4 {
		t.Errorf("only-error-on-node = %d, want 4", sdc.OnlyErrorOnNode)
	}
}

func TestStudyEnvironmentShapes(t *testing.T) {
	s := sharedStudy(t)
	hod := s.HourOfDayFigure()
	allRatio := analysis.DayNightRatio(hod.Total())
	multiRatio := analysis.DayNightRatio(hod.MultiBit())
	// Fig 5: flat (a uniform histogram gives 11/13 ≈ 0.85).
	if allRatio < 0.6 || allRatio > 1.3 {
		t.Errorf("all-errors day/night = %v, want ~flat", allRatio)
	}
	// Fig 6: multi-bit concentrated in daytime.
	if multiRatio < 1.4 {
		t.Errorf("multi-bit day/night = %v, want ~2", multiRatio)
	}
	if multiRatio < allRatio {
		t.Error("multi-bit errors must be more diurnal than singles")
	}
	// Fig 7/8: nominal temperatures dominate; no multi-bit above 60°C.
	temp := s.Figures.Temperature
	lo, _ := temp.ModalBand(1, 6)
	if lo < 28 || lo > 42 {
		t.Errorf("modal temperature band starts at %v, want ~30-40", lo)
	}
	if n := temp.CountAbove(60, 2, 6); n != 0 {
		t.Errorf("%v multi-bit errors above 60°C, paper saw none", n)
	}
}

func TestStudyCorrelations(t *testing.T) {
	s := sharedStudy(t)
	// §III-G: weak anti-correlation between scanned TBh/day and errors/day.
	pr, err := s.Figures.Daily.Correlation()
	if err != nil {
		t.Fatal(err)
	}
	if pr.R > -0.02 || pr.R < -0.4 {
		t.Errorf("Pearson r = %v, want mildly negative (~-0.18)", pr.R)
	}
	// §III-H: extreme spatial concentration.
	errShare, nodeShare := analysis.SpatialConcentration(s.Dataset, 3)
	if errShare < 0.995 {
		t.Errorf("top-3 error share %v, want >99.5%%", errShare)
	}
	if nodeShare > 0.01 {
		t.Errorf("top-3 node share %v, want <1%%", nodeShare)
	}
	// §III-I: regime split.
	reg := s.RegimesFigure()
	frac := reg.DegradedFraction()
	if frac < 0.10 || frac > 0.30 {
		t.Errorf("degraded fraction %v, want ~0.18", frac)
	}
	if reg.MTBFDegradedHours > 1 {
		t.Errorf("degraded MTBF %v h, want well under an hour", reg.MTBFDegradedHours)
	}
	if reg.MTBFNormalHours < 60 {
		t.Errorf("normal MTBF %v h, want >100", reg.MTBFNormalHours)
	}
}

func TestStudyQuarantineSweep(t *testing.T) {
	s := sharedStudy(t)
	results := quarantine.Sweep(s.Dataset.Faults, quarantine.PaperPeriods, s.ExcludedNodes()...)
	base := results[0]
	last := results[len(results)-1]
	// Table II shape: errors collapse by >10x, MTBF rises by >20x,
	// availability cost stays small.
	if base.Errors < 3000 {
		t.Errorf("baseline errors %d, want thousands", base.Errors)
	}
	if last.Errors > base.Errors/10 {
		t.Errorf("30-day quarantine leaves %d of %d errors", last.Errors, base.Errors)
	}
	if last.MTBFHours < base.MTBFHours*20 {
		t.Errorf("MTBF gain too small: %v -> %v", base.MTBFHours, last.MTBFHours)
	}
	if last.NodeDaysQuarantined > 1000 {
		t.Errorf("availability cost %v node-days", last.NodeDaysQuarantined)
	}
}

func TestStudySimultaneity(t *testing.T) {
	s := sharedStudy(t)
	st := s.SimultaneityStats()
	if st.FaultsInGroups < 18000 {
		t.Errorf("simultaneous faults %d, want >18k (~26k)", st.FaultsInGroups)
	}
	if frac := float64(st.SingleBitOnly) / float64(st.FaultsInGroups); frac < 0.98 {
		t.Errorf("all-single-bit group share %v, want >0.98", frac)
	}
	if st.TripleWithSingle != 2 {
		t.Errorf("triple+single = %d, want 2", st.TripleWithSingle)
	}
	if st.DoubleDoublePairs != 1 {
		t.Errorf("double+double = %d, want 1", st.DoubleDoublePairs)
	}
	if st.MaxGroupBits < 30 || st.MaxGroupBits > 40 {
		t.Errorf("largest event %d bits, want ~36", st.MaxGroupBits)
	}
}

func TestFullReportRenders(t *testing.T) {
	s := sharedStudy(t)
	var buf bytes.Buffer
	s.FullReport(&buf, ReportOptions{Charts: true, Heatmaps: true})
	out := buf.String()
	for _, want := range []string{
		"Headline", "Table I", "Table II", "Fig 1", "Fig 4", "Fig 5",
		"Fig 13", "Pearson", "SECDED", "chipkill", "quarantine",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 10000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

func TestDatasetOfWiresExclusions(t *testing.T) {
	s := sharedStudy(t)
	if len(s.ExcludedNodes()) != 1 {
		t.Fatalf("excluded nodes: %v", s.ExcludedNodes())
	}
	if s.Dataset.ControllerNode != s.Config.Profile.ControllerNode {
		t.Fatal("controller node not propagated")
	}
	if s.Dataset.PathologicalNode != s.Config.Profile.PathologicalNode {
		t.Fatal("pathological node not propagated")
	}
}
