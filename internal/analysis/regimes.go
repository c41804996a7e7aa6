package analysis

import (
	"unprotected/internal/cluster"
	"unprotected/internal/extract"
	"unprotected/internal/timebase"
)

// NormalDayThreshold is §III-I's safety-margin rule: "we consider any day
// with three or less errors as normal".
const NormalDayThreshold = 3

// Regimes is Fig 13 plus the associated MTBF split. The permanent-failure
// node (02-04) is excluded, as the paper assumes production would have
// retired it.
type Regimes struct {
	// Degraded[day] reports whether the system ran degraded that day.
	Degraded []bool
	// ErrorsPerDay is the daily error count after exclusion.
	ErrorsPerDay []float64

	NormalDays     int
	DegradedDays   int
	NormalErrors   int
	DegradedErrors int
	// MTBFNormalHours / MTBFDegradedHours are wall-clock hours per error
	// within each regime (167 h vs 0.39 h in the paper).
	MTBFNormalHours   float64
	MTBFDegradedHours float64
}

// RegimesAccum computes Fig 13: faults stream in one at a time (excluded
// nodes are dropped on the fly), Finish classifies the days. The exclusion set must be known up front — it is (§III-I names
// the permanently failing controller node), which is what makes the regime
// analysis streamable at all.
type RegimesAccum struct {
	exclude      map[cluster.NodeID]bool
	errorsPerDay []float64
}

// NewRegimesAccum returns an accumulator excluding the given nodes.
func NewRegimesAccum(exclude ...cluster.NodeID) *RegimesAccum {
	a := &RegimesAccum{
		exclude:      make(map[cluster.NodeID]bool, len(exclude)),
		errorsPerDay: make([]float64, timebase.StudyDays),
	}
	for _, n := range exclude {
		a.exclude[n] = true
	}
	return a
}

// Observe folds one fault into the daily counts.
func (a *RegimesAccum) Observe(f extract.Fault) {
	if a.exclude[f.Node] {
		return
	}
	day := f.FirstAt.Day()
	if day >= 0 && day < len(a.errorsPerDay) {
		a.errorsPerDay[day]++
	}
}

// merge adds b's daily counts into a.
func (a *RegimesAccum) merge(b *RegimesAccum) {
	for day, n := range b.errorsPerDay {
		a.errorsPerDay[day] += n
	}
}

// Finish classifies every study day from the accumulated counts. It does
// not mutate the accumulator and may be called repeatedly.
func (a *RegimesAccum) Finish() *Regimes {
	r := &Regimes{
		Degraded:     make([]bool, timebase.StudyDays),
		ErrorsPerDay: append([]float64(nil), a.errorsPerDay...),
	}
	for day, n := range r.ErrorsPerDay {
		if n > NormalDayThreshold {
			r.Degraded[day] = true
			r.DegradedDays++
			r.DegradedErrors += int(n)
		} else {
			r.NormalDays++
			r.NormalErrors += int(n)
		}
	}
	if r.NormalErrors > 0 {
		r.MTBFNormalHours = float64(r.NormalDays) * 24 / float64(r.NormalErrors)
	}
	if r.DegradedErrors > 0 {
		r.MTBFDegradedHours = float64(r.DegradedDays) * 24 / float64(r.DegradedErrors)
	}
	return r
}

// DegradedFraction returns the share of study days in degraded mode
// (18.1% in the paper).
func (r *Regimes) DegradedFraction() float64 {
	total := r.NormalDays + r.DegradedDays
	if total == 0 {
		return 0
	}
	return float64(r.DegradedDays) / float64(total)
}

// SpatialConcentration quantifies §III-H: the fraction of all errors
// contributed by the k highest-error nodes, and the fraction of scanned
// nodes they represent. The paper: >99.9% of errors in <1% of nodes.
func SpatialConcentration(d *Dataset, k int) (errorShare, nodeShare float64) {
	top, rest := TopNodes(d, k)
	var topTotal int
	for _, t := range top {
		topTotal += t.Total
	}
	total := topTotal + rest.Total
	if total > 0 {
		errorShare = float64(topTotal) / float64(total)
	}
	scanned := 923
	if d.Topo != nil {
		scanned = d.Topo.CountByRole()[cluster.Scanned]
	}
	if scanned > 0 {
		nodeShare = float64(k) / float64(scanned)
	}
	return errorShare, nodeShare
}
