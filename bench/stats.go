package main

import (
	"math"
	"slices"
	"time"
)

// metric is one named figure of a run. Kind decides where it is printed:
// "e2e" metrics are the end-to-end set every workload reports (the driver
// line with -trace 0), "layer" metrics come from the traced run (the driver
// line with -trace 1), and "detail" metrics are the workload-specific
// end-to-end figures printed beside them.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	N      int     `json:"n,omitempty"`     // samples behind the value
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // allowed regression share; 0 = none
	Kind   string  `json:"kind"`
}

// quantile returns the p-quantile of xs by the method Python's
// statistics.quantiles uses by default ("exclusive", R type 6), so the
// quartiles printed here match the ones the spread check computes.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := float64(n+1) * p
	j := int(math.Floor(h))
	j = min(max(j, 1), n-1)
	return s[j-1] + (s[j]-s[j-1])*(h-float64(j))
}

// quartiles returns the first quartile, the median and the third quartile.
func quartiles(xs []float64) (q1, med, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// series collects latency samples in one unit.
type series struct {
	scale float64 // seconds → unit
	xs    []float64
}

func newSeries(unit string) *series {
	if unit == "ms" {
		return &series{scale: 1e3}
	}
	return &series{scale: 1}
}

func (s *series) add(d time.Duration) { s.xs = append(s.xs, d.Seconds()*s.scale) }

// pct renders the p-quantile of the series as an unbounded metric.
func (s *series) pct(name, unit string, p float64, kind string) metric {
	return metric{Name: name, Unit: unit, Value: quantile(s.xs, p), N: len(s.xs), Better: "lower", Kind: kind}
}

// median is the p50 of a handful of durations, in seconds.
func median(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}
