package faults

import (
	"unprotected/internal/dram"
	"unprotected/internal/extract"
	"unprotected/internal/timebase"
)

// Burst is an activity window of an intermittent fault.
type Burst struct {
	From, To timebase.T
}

// WeakBit models the §III-H weak-cell nodes (04-05 and 58-02): a single
// cell, identical corruption every time, intermittently active in bursts.
// The cell is a true cell whose capacitor occasionally fails to hold
// charge between refreshes, so the observed flip is always 1→0 at the same
// bit — exactly what the paper saw ("the corrupted bit was the same in
// 100% of the cases").
type WeakBit struct {
	Addr dram.Addr
	Bit  int
	// LeakPerCheck is the discharge probability per observable scan check.
	LeakPerCheck float64
	// Bursts are the activity windows across the study.
	Bursts []Burst
}

// Emit walks the observable checks (the 0xFFFFFFFF phases of flip mode)
// inside each burst∩session intersection and emits a run per cluster of
// leaks, merging leaks at most two observable checks apart.
func (w *WeakBit) Emit(ctx *SessionCtx, out *[]extract.RawRun) int64 {
	if ctx.Mode.String() != "flip" {
		// The weak bit stores 1 only during the 0xFFFFFFFF phase; counter
		// sessions keep this cell's word near zero almost all the time, so
		// the leak is not observable there.
		return 0
	}
	if int64(w.Addr) >= ctx.Words {
		return 0
	}
	const expected = 0xFFFFFFFF
	actual := uint32(expected) &^ (1 << uint(w.Bit))
	slotDur := 2 * ctx.IterDur // FF-phase checks happen every other pass
	var raw int64
	for _, b := range w.Bursts {
		from, to := b.From, b.To
		if from < ctx.Window.From {
			from = ctx.Window.From
		}
		if to > ctx.Window.To {
			to = ctx.Window.To
		}
		if to <= from {
			continue
		}
		// Walk leak events: inter-leak gaps are geometric in observable
		// slots. Merge leaks within two slots into one run.
		slots := int64(to-from) / int64(slotDur)
		var slot int64 = int64(ctx.Rng.Geometric(w.LeakPerCheck))
		for slot < slots {
			runStartSlot := slot
			logs := 1
			lastSlot := slot
			for {
				gap := int64(ctx.Rng.Geometric(w.LeakPerCheck))
				next := lastSlot + gap
				if next >= slots || gap > 2 {
					slot = next
					break
				}
				logs++
				lastSlot = next
			}
			at := from + timebase.T(runStartSlot)*slotDur
			lastAt := from + timebase.T(lastSlot)*slotDur
			*out = append(*out, ctx.run(w.Addr, at, lastAt, logs, expected, actual))
			raw += int64(logs)
		}
	}
	return raw
}
