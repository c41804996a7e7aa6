package core

import (
	"unprotected/internal/analysis"
	"unprotected/internal/extract"
)

// Exported figure accessors for programmatic consumers: the report, the
// CSV export, and the fleet monitor's JSON report and metrics endpoint.
// Each reads Study.Figures, which Analyze folded and sealed before it
// returned, so calling one never mutates the Study and concurrent readers
// of one immutable snapshot need no coordination.

// Headline returns the §III-B headline numbers (raw volume, independent
// faults, monitored node-hours, MTBF cadences, flip polarity).
func (s *Study) Headline() analysis.Headline {
	d := s.Dataset
	return s.Figures.Headline.Headline(d.RawLogs, d.RawLogsByNode, d.Topo)
}

// MultiBitStats returns the Table I aggregates (§III-C): multi-bit event
// counts by width, bit-gap shape, LSB concentration.
func (s *Study) MultiBitStats() analysis.MultiBitStats { return s.Figures.MultiBit.Stats() }

// SimultaneityStats returns the Fig 4 aggregates (§III-C): faults
// co-occurring on one node and their bit-width mixture.
func (s *Study) SimultaneityStats() extract.SimultaneityStats {
	return s.Figures.Simultaneity.Stats()
}

// HourOfDayFigure returns the Figs 5-6 histograms (§III-E).
func (s *Study) HourOfDayFigure() *analysis.HourOfDay { return s.Figures.HourOfDay }

// RegimesFigure returns the Fig 13 day classification (§III-I): normal
// versus degraded days with per-regime error counts and MTBF.
func (s *Study) RegimesFigure() *analysis.Regimes { return s.Figures.Regimes.Finish() }
