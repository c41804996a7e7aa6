// Package checkpoint implements §IV's adaptive-checkpointing proposal:
// when the spatio-temporal analysis detects a degraded regime (MTBF
// dropping from ~167 h to ~0.39 h), a long-running job should shorten its
// checkpoint interval accordingly. The package provides the Young/Daly
// optimal interval, a wasted-work model, and a replay simulator comparing
// a static interval against a regime-adaptive one over the study's error
// timeline.
package checkpoint

import (
	"math"

	"unprotected/internal/timebase"
)

// YoungDaly returns the first-order optimal checkpoint interval
// sqrt(2 * C * MTBF) for checkpoint cost C (both in hours).
func YoungDaly(checkpointCostHours, mtbfHours float64) float64 {
	if checkpointCostHours <= 0 || mtbfHours <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(2 * checkpointCostHours * mtbfHours)
}

// WasteFraction estimates the fraction of time lost to checkpointing
// overhead plus expected rework, for interval T, cost C and the given
// MTBF (hours). First-order model: waste = C/T + T/(2*MTBF).
func WasteFraction(intervalHours, checkpointCostHours, mtbfHours float64) float64 {
	if intervalHours <= 0 {
		return 1
	}
	w := checkpointCostHours/intervalHours + intervalHours/(2*mtbfHours)
	if w > 1 {
		return 1
	}
	return w
}

// Plan is a per-day checkpoint-interval schedule.
type Plan struct {
	// IntervalHours[day] is the interval used on that study day.
	IntervalHours []float64
}

// StaticPlan uses one interval everywhere.
func StaticPlan(intervalHours float64) Plan {
	p := Plan{IntervalHours: make([]float64, timebase.StudyDays)}
	for i := range p.IntervalHours {
		p.IntervalHours[i] = intervalHours
	}
	return p
}

// AdaptivePlan derives a per-day interval from the regime classification:
// Young/Daly against the regime's MTBF. degraded[day] and both MTBFs come
// from the Fig 13 regimes (analysis.Regimes, Study.RegimesFigure).
func AdaptivePlan(degraded []bool, checkpointCostHours, mtbfNormalHours, mtbfDegradedHours float64) Plan {
	p := Plan{IntervalHours: make([]float64, len(degraded))}
	normal := YoungDaly(checkpointCostHours, mtbfNormalHours)
	deg := YoungDaly(checkpointCostHours, mtbfDegradedHours)
	for day, isDeg := range degraded {
		if isDeg {
			p.IntervalHours[day] = deg
		} else {
			p.IntervalHours[day] = normal
		}
	}
	return p
}

// Outcome summarizes a replay.
type Outcome struct {
	CheckpointsTaken int
	CheckpointHours  float64
	ReworkHours      float64
	// WasteHours is total overhead (checkpoints + rework).
	WasteHours float64
	Failures   int
}

// Replay walks the study day by day. Failure times are the hour-of-study
// instants of system-level errors (one per fault affecting the job's
// nodes). The job checkpoints every IntervalHours (resetting after
// failures); each failure rolls back to the last checkpoint.
func Replay(p Plan, failureHours []float64, checkpointCostHours float64) Outcome {
	var out Outcome
	horizon := float64(timebase.StudyDays) * 24
	fi := 0
	lastCheckpoint := 0.0
	next := func(t float64) float64 {
		day := int(t / 24)
		if day >= len(p.IntervalHours) {
			day = len(p.IntervalHours) - 1
		}
		iv := p.IntervalHours[day]
		if math.IsInf(iv, 1) {
			return horizon + 1
		}
		return t + iv
	}
	nextCk := next(0)
	t := 0.0
	for t < horizon {
		// Next event: checkpoint or failure.
		var failT = math.Inf(1)
		if fi < len(failureHours) {
			failT = failureHours[fi]
		}
		if nextCk <= failT {
			if nextCk > horizon {
				break
			}
			t = nextCk
			out.CheckpointsTaken++
			out.CheckpointHours += checkpointCostHours
			lastCheckpoint = t
			nextCk = next(t + checkpointCostHours)
			continue
		}
		// Failure: lose the work done since the last resume point (the
		// last checkpoint or the previous failure's restart — counting
		// from the checkpoint every time would double-charge overlapping
		// spans when failures arrive faster than checkpoints).
		t = failT
		fi++
		out.Failures++
		out.ReworkHours += t - lastCheckpoint
		lastCheckpoint = t
		nextCk = next(t)
	}
	out.WasteHours = out.CheckpointHours + out.ReworkHours
	return out
}
