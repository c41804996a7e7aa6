package analysis

import (
	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
)

// Accumulators bundles every streaming figure computation so one pass over
// a canonically ordered fault stream plus one pass over the session stream
// yields the §III statistics that are computable online: the headline box,
// hour-of-day and temperature distributions (Figs 5–8), the multi-bit
// population, simultaneity (Fig 4, §III-C), the daily time series
// (Figs 9–11) and the regime split (Fig 13). Every source feeds it through
// the shared core sink, and the report and the CSV export read it, so
// nothing iterates the dataset a second time for these figures.
//
// Faults must arrive in the canonical extract.Compare order (every source
// guarantees it); sessions may arrive in any order.
type Accumulators struct {
	Headline     *HeadlineAccum
	HourOfDay    *HourOfDay
	Temperature  *Temperature
	MultiBit     *MultiBitAccum
	Simultaneity *SimultaneityAccum
	Daily        *DailyAccum
	Regimes      *RegimesAccum
}

// NewAccumulators builds the bundle. excludeFromRegimes lists the nodes
// the §III-I regime analysis drops (the permanently failing controller
// node); it must be known before the stream starts.
func NewAccumulators(excludeFromRegimes ...cluster.NodeID) *Accumulators {
	return &Accumulators{
		Headline:     NewHeadlineAccum(),
		HourOfDay:    NewHourOfDay(),
		Temperature:  NewTemperature(),
		MultiBit:     NewMultiBitAccum(),
		Simultaneity: NewSimultaneityAccum(),
		Daily:        NewDailyAccum(),
		Regimes:      NewRegimesAccum(excludeFromRegimes...),
	}
}

// ObserveFault feeds one fault to every fault-driven accumulator.
func (a *Accumulators) ObserveFault(f extract.Fault) {
	a.Headline.ObserveFault(f)
	a.HourOfDay.Observe(f)
	a.Temperature.Observe(f)
	a.MultiBit.Observe(f)
	a.Simultaneity.Observe(f)
	a.Daily.ObserveFault(f)
	a.Regimes.Observe(f)
}

// ObserveSession feeds one session to every session-driven accumulator.
func (a *Accumulators) ObserveSession(s eventlog.Session) {
	a.Headline.ObserveSession(s)
	a.Daily.ObserveSession(s)
}

// Finish seals the bundle once the stream has ended: it closes the
// trailing simultaneity group, after which every figure read is a pure
// read that never mutates the bundle. Analyze calls it when its stream
// ends; a custom pipeline calls it after its last delivery, directly or
// by attaching the bundle as a stream.Observer. It never fails; the error
// result completes the stream.Observer interface.
func (a *Accumulators) Finish() error {
	a.Simultaneity.grouper.Flush()
	return nil
}
