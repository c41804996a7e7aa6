package analysis

import (
	"fmt"

	"unprotected/internal/extract"
	"unprotected/internal/render"
)

// HourOfDay is the Fig 5/6 data: error counts per local hour, one series
// per bit-count class.
type HourOfDay struct {
	// Counts[class][hour], class per BitClass (1..6).
	Counts [7][24]float64
}

// NewHourOfDay returns an empty accumulator for streaming consumers.
func NewHourOfDay() *HourOfDay { return &HourOfDay{} }

// Observe folds one fault into the histogram.
func (h *HourOfDay) Observe(f extract.Fault) {
	h.Counts[BitClass(f.BitCount())][f.FirstAt.HourOfDay()]++
}

// merge adds b's counts into h.
func (h *HourOfDay) merge(b *HourOfDay) {
	for c := range h.Counts {
		for hh := range h.Counts[c] {
			h.Counts[c][hh] += b.Counts[c][hh]
		}
	}
}

// Total returns the all-classes histogram.
func (h *HourOfDay) Total() [24]float64 {
	var out [24]float64
	for c := 1; c <= 6; c++ {
		for hh := 0; hh < 24; hh++ {
			out[hh] += h.Counts[c][hh]
		}
	}
	return out
}

// MultiBit returns the multi-bit-only histogram (classes 2..6+), Fig 6.
func (h *HourOfDay) MultiBit() [24]float64 {
	var out [24]float64
	for c := 2; c <= 6; c++ {
		for hh := 0; hh < 24; hh++ {
			out[hh] += h.Counts[c][hh]
		}
	}
	return out
}

// DayNightRatio returns (7:00–17:59 count)/(rest) for a 24-bin histogram.
// The paper found ≈2× for multi-bit errors and ≈1 for all errors.
func DayNightRatio(hist [24]float64) float64 {
	var day, night float64
	for hh, v := range hist {
		if hh >= 7 && hh < 18 {
			day += v
		} else {
			night += v
		}
	}
	if night == 0 {
		return 0
	}
	return day / night
}

// PeakHour returns the hour with the largest count.
func PeakHour(hist [24]float64) int {
	best := 0
	for hh, v := range hist {
		if v > hist[best] {
			best = hh
		}
	}
	return best
}

// Chart renders the per-class histograms (Fig 5 when all classes, Fig 6
// when multiBitOnly).
func (h *HourOfDay) Chart(title string, multiBitOnly bool) *render.BarChart {
	chart := &render.BarChart{Title: title}
	for hh := 0; hh < 24; hh++ {
		chart.XLabels = append(chart.XLabels, fmt.Sprintf("%02dh", hh))
	}
	lo := 1
	if multiBitOnly {
		lo = 2
	}
	for c := lo; c <= 6; c++ {
		var vals []float64
		nonzero := false
		for hh := 0; hh < 24; hh++ {
			v := h.Counts[c][hh]
			vals = append(vals, v)
			if v > 0 {
				nonzero = true
			}
		}
		if nonzero {
			chart.Series = append(chart.Series, render.Series{Label: BitClassLabels[c], Values: vals})
		}
	}
	if multiBitOnly {
		mb := h.MultiBit()
		chart.Series = append(chart.Series, render.Series{Label: "all multi-bit", Values: mb[:]})
	}
	return chart
}
