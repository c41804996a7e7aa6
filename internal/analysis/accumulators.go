package analysis

import (
	"slices"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
)

// Accumulators bundles every streaming figure computation so one pass over
// a canonically ordered fault stream plus one pass over the session stream
// yields the §III statistics that are computable online: the headline box,
// hour-of-day and temperature distributions (Figs 5–8), the multi-bit
// population, simultaneity (Fig 4, §III-C), the daily time series
// (Figs 9–11) and the regime split (Fig 13). core.Analyze folds every
// source into it — a built-in source as per-worker partials merged into
// one bundle — and the report and the CSV export read it, so nothing
// iterates the dataset a second time for these figures.
//
// Every figure is kept exact: counts as integers (or integer-valued
// floats), session time in integer seconds and memory-time in integer
// byte-seconds, converted to hours and TBh only when read or sealed. So
// the figures do not depend on the order they were fed in, and bundles fed
// the parts of one stream fold with Merge to the same bytes as one bundle
// fed all of it.
//
// Faults of one simultaneity group (same node, same FirstAt) must arrive
// one after another — the canonical extract.Compare order gives that, and
// so does any node's own sorted stream; sessions may arrive in any order.
//
// The fault-driven figures (HourOfDay, Temperature, MultiBit,
// Simultaneity, Regimes) are nil until the bundle's first fault, so a
// bundle over a fault-free node holds little beyond its per-day
// byte-seconds; Finish allocates whatever is still missing.
type Accumulators struct {
	Headline     *HeadlineAccum
	HourOfDay    *HourOfDay
	Temperature  *Temperature
	MultiBit     *MultiBitAccum
	Simultaneity *SimultaneityAccum
	Daily        *DailyAccum
	Regimes      *RegimesAccum

	exclude []cluster.NodeID
}

// NewAccumulators builds the bundle. excludeFromRegimes lists the nodes
// the §III-I regime analysis drops (the permanently failing controller
// node); it must be known before the stream starts.
func NewAccumulators(excludeFromRegimes ...cluster.NodeID) *Accumulators {
	return &Accumulators{
		Headline: NewHeadlineAccum(),
		Daily:    NewDailyAccum(),
		exclude:  slices.Clone(excludeFromRegimes),
	}
}

// faultSide allocates the fault-driven figures; callers check that they
// are still missing.
func (a *Accumulators) faultSide() {
	a.HourOfDay = NewHourOfDay()
	a.Temperature = NewTemperature()
	a.MultiBit = NewMultiBitAccum()
	a.Simultaneity = NewSimultaneityAccum()
	a.Regimes = NewRegimesAccum(a.exclude...)
}

// ObserveFault feeds one fault to every fault-driven accumulator.
func (a *Accumulators) ObserveFault(f extract.Fault) {
	if a.HourOfDay == nil {
		a.faultSide()
	}
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

// Merge folds everything b observed into a, leaving b unchanged. b need
// not be sealed: its open simultaneity group counts as closed, as if b's
// stream had ended. The two bundles must exclude the same nodes from the
// regimes and must not share a simultaneity group, which holds when they
// saw different nodes or split one stream at group boundaries. Because
// every figure is exact, any partition of a stream into bundles, merged
// in any order, gives the figures of one bundle fed the whole stream. a
// must be sealed by Finish after its last Merge.
func (a *Accumulators) Merge(b *Accumulators) {
	if !slices.Equal(a.exclude, b.exclude) {
		panic("analysis: Merge of bundles with different regime exclusions")
	}
	a.Headline.merge(b.Headline)
	a.Daily.merge(b.Daily)
	if b.HourOfDay == nil {
		return // b saw no fault
	}
	if a.HourOfDay == nil {
		a.faultSide()
	}
	a.HourOfDay.merge(b.HourOfDay)
	a.Temperature.merge(b.Temperature)
	a.MultiBit.merge(b.MultiBit)
	a.Simultaneity.merge(b.Simultaneity)
	a.Regimes.merge(b.Regimes)
}

// Finish seals the bundle once the stream has ended: it closes the
// trailing simultaneity group, allocates the figures of a bundle that saw
// no fault, and derives the float views of the exact sums (Daily.Scanned).
// After it every figure read is a pure read that never mutates the
// bundle. Analyze calls it when its stream ends; a custom pipeline calls
// it after its last delivery or Merge, directly or by attaching the
// bundle as a stream.Observer. It never fails; the error result completes
// the stream.Observer interface.
func (a *Accumulators) Finish() error {
	if a.HourOfDay == nil {
		a.faultSide()
	}
	a.Simultaneity.grouper.Flush()
	a.Daily.seal()
	return nil
}
