package analysis

import (
	"fmt"

	"unprotected/internal/extract"
	"unprotected/internal/render"
	"unprotected/internal/stats"
)

// TempBins spans the plotted temperature range of Figs 7–8.
const (
	TempLo      = 18.0
	TempHi      = 72.0
	TempBinSize = 2.0
)

// Temperature is the Fig 7/8 data: per bit class, a histogram of node
// temperature at fault time. Faults before telemetry started (April 2015)
// carry no reading and are counted in NoReading.
type Temperature struct {
	Hists     [7]*stats.Histogram
	NoReading int
}

// NewTemperature returns an empty accumulator for streaming consumers.
func NewTemperature() *Temperature {
	t := &Temperature{}
	n := int((TempHi - TempLo) / TempBinSize)
	for c := 1; c <= 6; c++ {
		t.Hists[c] = stats.NewHistogram(TempLo, TempHi, n)
	}
	return t
}

// Observe folds one fault into the histograms.
func (t *Temperature) Observe(f extract.Fault) {
	if !f.HasTemp() {
		t.NoReading++
		return
	}
	t.Hists[BitClass(f.BitCount())].Observe(f.TempC)
}

// merge adds b's counts into t.
func (t *Temperature) merge(b *Temperature) {
	t.NoReading += b.NoReading
	for c := 1; c <= 6; c++ {
		for i, v := range b.Hists[c].Counts {
			t.Hists[c].Counts[i] += v
		}
	}
}

// CountAbove returns errors hotter than the threshold across classes
// lo..hi (the paper: a small set of single-bit errors above 60°C, no
// multi-bit ones).
func (t *Temperature) CountAbove(tempC float64, loClass, hiClass int) float64 {
	var total float64
	for c := loClass; c <= hiClass && c <= 6; c++ {
		h := t.Hists[c]
		for i, v := range h.Counts {
			if h.BinCenter(i) > tempC {
				total += v
			}
		}
	}
	return total
}

// ModalBand returns the [lo, hi) temperature band of the modal bin over
// classes lo..hi; the paper's mode is 30–40°C.
func (t *Temperature) ModalBand(loClass, hiClass int) (lo, hi float64) {
	n := len(t.Hists[1].Counts)
	agg := make([]float64, n)
	for c := loClass; c <= hiClass && c <= 6; c++ {
		for i, v := range t.Hists[c].Counts {
			agg[i] += v
		}
	}
	best := 0
	for i, v := range agg {
		if v > agg[best] {
			best = i
		}
	}
	lo = TempLo + float64(best)*TempBinSize
	return lo, lo + TempBinSize
}

// Chart renders the temperature distributions (Fig 7 for all classes,
// Fig 8 restricted to multi-bit).
func (t *Temperature) Chart(title string, multiBitOnly bool) *render.BarChart {
	chart := &render.BarChart{Title: title}
	h0 := t.Hists[1]
	for i := range h0.Counts {
		chart.XLabels = append(chart.XLabels, fmt.Sprintf("%.0fC", h0.BinCenter(i)))
	}
	lo := 1
	if multiBitOnly {
		lo = 2
	}
	for c := lo; c <= 6; c++ {
		nonzero := false
		for _, v := range t.Hists[c].Counts {
			if v > 0 {
				nonzero = true
				break
			}
		}
		if nonzero {
			chart.Series = append(chart.Series, render.Series{
				Label: BitClassLabels[c], Values: append([]float64(nil), t.Hists[c].Counts...),
			})
		}
	}
	return chart
}
