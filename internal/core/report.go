package core

import (
	"fmt"
	"io"

	"unprotected/internal/analysis"
	"unprotected/internal/ecc"
	"unprotected/internal/quarantine"
	"unprotected/internal/render"
)

// ReportOptions selects report sections.
type ReportOptions struct {
	Heatmaps bool
	Charts   bool
}

// FullReport renders every figure and table of the paper from the study.
// The figures that stream (headline, Figs 1–2, 4–11, 13) are read from
// Study.Figures; the rest are computed from the dataset's faults.
func (s *Study) FullReport(w io.Writer, opt ReportOptions) {
	d, fig := s.Dataset, s.Figures

	h := s.Headline()
	fmt.Fprintf(w, "== Headline (§III-B) ==\n")
	fmt.Fprintf(w, "raw error logs:            %d (paper: >25,000,000)\n", h.RawLogs)
	fmt.Fprintf(w, "worst node raw share:      %.1f%% from %v (paper: >98%%)\n", 100*h.TopNodeRawShare, h.TopRawNode)
	fmt.Fprintf(w, "independent memory faults: %d (paper: >55,000)\n", h.IndependentFaults)
	fmt.Fprintf(w, "multi-bit word faults:     %d (paper: 85)\n", h.MultiBitFaults)
	fmt.Fprintf(w, "node-hours monitored:      %.0f (paper: ~4.2M)\n", float64(h.NodeHours))
	fmt.Fprintf(w, "memory analyzed:           %.0f TBh (paper: 12,135)\n", float64(h.TotalTBh))
	fmt.Fprintf(w, "nodes scanned:             %d (paper: 923)\n", h.NodesScanned)
	fmt.Fprintf(w, "cluster error cadence:     one per %.1f min (paper: ~10 min)\n", h.ClusterMTBFMinutes)
	fmt.Fprintf(w, "node-hours per fault:      %.0f h\n", h.NodeMTBFHours)
	fmt.Fprintf(w, "bit flips 1->0:            %.1f%% (paper: ~90%%)\n\n", 100*h.Ones2ZerosFraction())

	if opt.Heatmaps {
		analysis.HoursHeatmap(fig.Headline, d.Topo).Render(w)
		fmt.Fprintln(w)
		analysis.TBhHeatmap(fig.Headline, d.Topo).Render(w)
		fmt.Fprintln(w)
		analysis.ErrorsHeatmap(d).Render(w)
		fmt.Fprintln(w)
	} else {
		for _, g := range []*render.Grid{analysis.HoursHeatmap(fig.Headline, d.Topo), analysis.TBhHeatmap(fig.Headline, d.Topo), analysis.ErrorsHeatmap(d)} {
			st := analysis.GridStats(g)
			fmt.Fprintf(w, "%s: nodes>0=%d max=%.6g mean=%.6g\n", g.Title, st.NonZero, st.Max, st.Mean)
		}
		fmt.Fprintln(w)
	}

	rows := analysis.MultiBitTable(d)
	analysis.RenderMultiBitTable(rows).Render(w)
	mb := s.MultiBitStats()
	fmt.Fprintf(w, "multi-bit events: %d (paper 85); double-bit: %d (76); >2-bit: %d (9); >3-bit: %d (7)\n",
		mb.TotalEvents, mb.DoubleBitEvents, mb.OverTwoBits, mb.OverThreeBits)
	fmt.Fprintf(w, "non-consecutive: %d/%d; mean gap %.1f bits (paper 3); max gap %d (paper 11); LSB share %.0f%%\n\n",
		mb.NonConsecutive, mb.TotalEvents, mb.MeanGap, mb.MaxGap, 100*mb.LSBShare)

	sim := s.SimultaneityStats()
	fmt.Fprintf(w, "== Simultaneity (§III-C, Fig 4) ==\n")
	fmt.Fprintf(w, "faults co-occurring with others: %d (paper: >26,000)\n", sim.FaultsInGroups)
	fmt.Fprintf(w, "  of which all-single-bit groups: %d (paper: >99.9%%)\n", sim.SingleBitOnly)
	fmt.Fprintf(w, "double-bit with simultaneous single: %d (paper: 44)\n", sim.DoubleWithSingle)
	fmt.Fprintf(w, "triple-bit with simultaneous single: %d (paper: 2)\n", sim.TripleWithSingle)
	fmt.Fprintf(w, "double+double events: %d (paper: 1)\n", sim.DoubleDoublePairs)
	fmt.Fprintf(w, "largest simultaneous event: %d bits (paper: 36)\n\n", sim.MaxGroupBits)
	if opt.Charts {
		fig.Simultaneity.Figure().Chart().Render(w)
		fmt.Fprintln(w)
	}

	hod := s.HourOfDayFigure()
	all := hod.Total()
	multi := hod.MultiBit()
	fmt.Fprintf(w, "== Time of day (§III-E, Figs 5-6) ==\n")
	fmt.Fprintf(w, "all errors day/night ratio:       %.2f (paper: ~1, flat)\n", analysis.DayNightRatio(all))
	fmt.Fprintf(w, "multi-bit errors day/night ratio: %.2f (paper: ~2)\n", analysis.DayNightRatio(multi))
	fmt.Fprintf(w, "multi-bit peak hour:              %02d:00 local (paper: noon)\n\n", analysis.PeakHour(multi))
	if opt.Charts {
		hod.Chart("Fig 5: errors per hour of day by bit count", false).Render(w)
		hod.Chart("Fig 6: multi-bit errors per hour of day", true).Render(w)
		fmt.Fprintln(w)
	}

	temp := fig.Temperature
	lo, hi := temp.ModalBand(1, 6)
	fmt.Fprintf(w, "== Temperature (§III-F, Figs 7-8) ==\n")
	fmt.Fprintf(w, "modal band: %.0f-%.0f°C (paper: 30-40°C); errors >60°C: %.0f; multi-bit >60°C: %.0f (paper: 0); no telemetry: %d\n\n",
		lo, hi, temp.CountAbove(60, 1, 6), temp.CountAbove(60, 2, 6), temp.NoReading)
	if opt.Charts {
		temp.Chart("Fig 7: errors vs temperature by bit count", false).Render(w)
		temp.Chart("Fig 8: multi-bit errors vs temperature", true).Render(w)
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "== Scanning vs errors (§III-G, Figs 9-11) ==\n")
	if pr, err := fig.Daily.Correlation(); err == nil {
		fmt.Fprintf(w, "Pearson(TBh/day, errors/day): r=%.5f p=%.4g n=%d (paper: r=-0.17966 p=0.0002)\n\n", pr.R, pr.P, pr.N)
	}
	if opt.Charts {
		scanned, daily := fig.Daily.Scanned, fig.Daily.Errors
		analysis.DailyChart("Fig 9: memory scanned per day (TBh, monthly sums)",
			map[string][]float64{"TBh": scanned}).Render(w)
		analysis.DailyChart("Fig 10: errors per day (monthly sums)",
			map[string][]float64{"all": daily[0]}).Render(w)
		multiDaily := make([]float64, len(daily[2]))
		for c := 2; c <= 6; c++ {
			for i, v := range daily[c] {
				multiDaily[i] += v
			}
		}
		analysis.DailyChart("Fig 11: multi-bit errors per day (monthly sums)",
			map[string][]float64{"multi-bit": multiDaily}).Render(w)
		fmt.Fprintln(w)
	}

	top, restAgg := analysis.TopNodes(d, 3)
	fmt.Fprintf(w, "== Spatial correlation (§III-H, Fig 12) ==\n")
	for _, t := range top {
		fmt.Fprintf(w, "%s: %d errors\n", analysis.FormatNode(t.Node), t.Total)
	}
	fmt.Fprintf(w, "all other nodes combined: %d errors (paper: <30)\n", restAgg.Total)
	errShare, nodeShare := analysis.SpatialConcentration(d, 3)
	fmt.Fprintf(w, "concentration: %.2f%% of errors in %.2f%% of nodes (paper: >99.9%% in <1%%)\n\n",
		100*errShare, 100*nodeShare)

	reg := s.RegimesFigure()
	fmt.Fprintf(w, "== Temporal correlation (§III-I, Fig 13) ==\n")
	fmt.Fprintf(w, "normal days: %d (errors: %d, MTBF %.0f h; paper: 348 days, ~50 errors, 167 h)\n",
		reg.NormalDays, reg.NormalErrors, reg.MTBFNormalHours)
	fmt.Fprintf(w, "degraded days: %d = %.1f%% (errors: %d, MTBF %.2f h; paper: 77 days = 18.1%%, ~5,000 errors, 0.39 h)\n\n",
		reg.DegradedDays, 100*reg.DegradedFraction(), reg.DegradedErrors, reg.MTBFDegradedHours)
	if opt.Charts {
		render.Strip(w, "Fig 13: system regime per day (X = degraded)", reg.Degraded, 'X', '.')
		fmt.Fprintln(w)
	}

	sdc := analysis.ComputeIsolatedSDC(d)
	fmt.Fprintf(w, "== Detectable vs undetectable (§III-D) ==\n")
	fmt.Fprintf(w, ">3-bit (SECDED-undetectable) events: %d on %d nodes (paper: 7 on 5)\n", len(sdc.Events), sdc.NodesInvolved)
	fmt.Fprintf(w, "uncorrelated with any detectable error: %d of %d (paper: all); node's only error: %d (paper: 4)\n",
		sdc.FullyIsolated, len(sdc.Events), sdc.OnlyErrorOnNode)
	fmt.Fprintf(w, "pre-telemetry: %d; nodes adjacent to SoC-12: %d of %d (paper: 4 of 5)\n\n",
		sdc.PreTelemetry, sdc.NearSoC12Nodes, sdc.NodesInvolved)

	s.quarantineSection(w)
	s.eccSection(w)
}

// ScenarioSummary reduces the study to its cross-scenario comparison row
// (raw rate, multi-bit fraction, day/night contrast, worst node) under
// the given scenario name.
func (s *Study) ScenarioSummary(name string) analysis.ScenarioSummary {
	return analysis.Summarize(name, s.Headline(), s.HourOfDayFigure())
}

// tableII runs the Table II quarantine sweep over the paper's periods.
// The report renders it and the CSV export writes the same row strings.
func (s *Study) tableII() *render.Table {
	t := &render.Table{
		Title:   "Table II: system MTBF for different quarantine periods",
		Headers: []string{"Quarantine (days)", "Errors", "Node-days quarantined", "MTBF (h)"},
	}
	for _, r := range quarantine.Sweep(s.Dataset.Faults, quarantine.PaperPeriods, s.ExcludedNodes()...) {
		t.AddRow(
			fmt.Sprintf("%d", int(r.Policy.Period.Hours()/24)),
			fmt.Sprint(r.Errors),
			fmt.Sprintf("%.0f", r.NodeDaysQuarantined),
			fmt.Sprintf("%.1f", r.MTBFHours),
		)
	}
	return t
}

// quarantineSection renders Table II.
func (s *Study) quarantineSection(w io.Writer) {
	s.tableII().Render(w)
	fmt.Fprintf(w, "(paper row for 30 days: 65 errors, 180 node-days, 156.9 h)\n\n")
}

// eccSection runs the §IV ablation: what SECDED and chipkill would have
// done with every observed corruption.
func (s *Study) eccSection(w io.Writer) {
	pairs := make([][2]uint32, 0, len(s.Dataset.Faults))
	for _, f := range s.Dataset.Faults {
		pairs = append(pairs, [2]uint32{f.Expected, f.Expected ^ f.Actual})
	}
	sec := ecc.RunAudit(ecc.SECDED32{C: ecc.NewSECDED3932()}, pairs)
	ck := ecc.RunAudit(ecc.NewChipkill(), pairs)
	fmt.Fprintf(w, "== ECC ablation (§III-C/§IV) ==\n")
	fmt.Fprintf(w, "SECDED(39,32): corrected=%d detected=%d silent=%d\n",
		sec.ByOutcome[ecc.Corrected], sec.ByOutcome[ecc.Detected], sec.Silent())
	fmt.Fprintf(w, "chipkill SSC-DSD: corrected=%d detected=%d silent=%d\n",
		ck.ByOutcome[ecc.Corrected], ck.ByOutcome[ecc.Detected], ck.Silent())
	if cu, su := ck.Uncorrected(), sec.Uncorrected(); cu > 0 {
		fmt.Fprintf(w, "uncorrected-error ratio SECDED/chipkill: %.1fx (related work [31]: 42x)\n", float64(su)/float64(cu))
	}
	fmt.Fprintln(w)
}
