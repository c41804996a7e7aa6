package analysis

import (
	"fmt"
	"sort"

	"unprotected/internal/extract"
	"unprotected/internal/render"
)

// MultiBitRow is one line of Table I: a distinct (expected, corrupted)
// word pattern with its occurrence count.
type MultiBitRow struct {
	Bits        int
	Expected    uint32
	Corrupted   uint32
	Occurrences int
	Consecutive bool
}

// MultiBitTable builds Table I from the dataset's multi-bit faults,
// grouped by exact value pair, ordered like the paper (bit count, then
// occurrences).
func MultiBitTable(d *Dataset) []MultiBitRow {
	type key struct{ e, a uint32 }
	rows := make(map[key]*MultiBitRow)
	for _, f := range d.MultiBitFaults() {
		k := key{f.Expected, f.Actual}
		r, ok := rows[k]
		if !ok {
			r = &MultiBitRow{
				Bits:        f.BitCount(),
				Expected:    f.Expected,
				Corrupted:   f.Actual,
				Consecutive: f.Bits.Consecutive(),
			}
			rows[k] = r
		}
		r.Occurrences++
	}
	out := make([]MultiBitRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bits != out[j].Bits {
			return out[i].Bits < out[j].Bits
		}
		if out[i].Occurrences != out[j].Occurrences {
			return out[i].Occurrences < out[j].Occurrences
		}
		if out[i].Corrupted != out[j].Corrupted {
			return out[i].Corrupted < out[j].Corrupted
		}
		// Two distinct value pairs can share corrupted value, bit count and
		// occurrence count; without this final key the row order would leak
		// map iteration order into the rendered table.
		return out[i].Expected < out[j].Expected
	})
	return out
}

// MultiBitStats aggregates §III-C's adjacency observations over Table I.
type MultiBitStats struct {
	TotalEvents     int // multi-bit faults (85 in the paper)
	DoubleBitEvents int // 76 in the paper
	OverTwoBits     int // 9 in the paper (undetectable by SECDED)
	OverThreeBits   int // 7 in the paper (§III-D focus)
	NonConsecutive  int // events whose corrupted bits are not contiguous
	MeanGap         float64
	MaxGap          int
	MaxBits         int
	LSBShare        float64 // fraction of corrupted bits in the low half-word
}

// MultiBitAccum accumulates MultiBitStats: Observe faults one at a time,
// read Stats whenever needed (Stats finalizes the running means without
// mutating the accumulator). Every field is an integer, so the mean gap
// is kept as exact gap totals per bit count and divided out at read.
type MultiBitAccum struct {
	st MultiBitStats
	// gapBits[k] totals the clear bits between the corrupted ones over
	// every event with k+1 corrupted bits; such an event's mean gap is its
	// total over k.
	gapBits   [32]int
	lsb       int
	bitsTotal int
}

// NewMultiBitAccum returns an empty accumulator.
func NewMultiBitAccum() *MultiBitAccum { return &MultiBitAccum{} }

// Observe folds one fault into the aggregates; single-bit faults are
// ignored, as in the paper's Table I population.
func (a *MultiBitAccum) Observe(f extract.Fault) {
	bc := f.BitCount()
	if bc < 2 {
		return
	}
	st := &a.st
	st.TotalEvents++
	if bc == 2 {
		st.DoubleBitEvents++
	}
	if bc > 2 {
		st.OverTwoBits++
	}
	if bc > 3 {
		st.OverThreeBits++
	}
	if !f.Bits.Consecutive() {
		st.NonConsecutive++
	}
	if g := f.Bits.MaxGap(); g > st.MaxGap {
		st.MaxGap = g
	}
	if bc > st.MaxBits {
		st.MaxBits = bc
	}
	a.gapBits[bc-1] += f.Bits.GapBits()
	a.bitsTotal += bc
	a.lsb += (f.Bits & 0xffff).Count()
}

// merge folds b's aggregates into a.
func (a *MultiBitAccum) merge(b *MultiBitAccum) {
	st, o := &a.st, &b.st
	st.TotalEvents += o.TotalEvents
	st.DoubleBitEvents += o.DoubleBitEvents
	st.OverTwoBits += o.OverTwoBits
	st.OverThreeBits += o.OverThreeBits
	st.NonConsecutive += o.NonConsecutive
	st.MaxGap = max(st.MaxGap, o.MaxGap)
	st.MaxBits = max(st.MaxBits, o.MaxBits)
	for k, g := range b.gapBits {
		a.gapBits[k] += g
	}
	a.lsb += b.lsb
	a.bitsTotal += b.bitsTotal
}

// Stats returns the aggregates observed so far.
func (a *MultiBitAccum) Stats() MultiBitStats {
	st := a.st
	if st.TotalEvents > 0 {
		var sum float64
		for k := 1; k < len(a.gapBits); k++ {
			sum += float64(a.gapBits[k]) / float64(k)
		}
		st.MeanGap = sum / float64(st.TotalEvents)
	}
	if a.bitsTotal > 0 {
		st.LSBShare = float64(a.lsb) / float64(a.bitsTotal)
	}
	return st
}

// RenderMultiBitTable renders Table I in the paper's column layout.
func RenderMultiBitTable(rows []MultiBitRow) *render.Table {
	t := &render.Table{
		Title:   "Table I: multi-bit corruptions affecting the prototype",
		Headers: []string{"Bits", "Expected", "Corrupted", "Occurrences", "Consecutive"},
	}
	for _, r := range rows {
		cons := "No"
		if r.Consecutive {
			cons = "Yes"
		}
		t.AddRow(
			fmt.Sprint(r.Bits),
			fmt.Sprintf("0x%08x", r.Expected),
			fmt.Sprintf("0x%08x", r.Corrupted),
			fmt.Sprint(r.Occurrences),
			cons,
		)
	}
	return t
}

// SimultaneityFigure is Fig 4: error-event counts by bit multiplicity on
// the per-word basis (standard multi-bit definition) and the per-node
// basis (bits summed over a simultaneity group).
type SimultaneityFigure struct {
	PerWord [7]float64 // index BitClass
	PerNode [7]float64
}

// SimultaneityAccum accumulates the §III-C analyses: it feeds a
// streaming extract.Grouper, so Fig 4 and the simultaneity aggregates
// come out of one pass over a canonically ordered fault stream without
// materializing the groups. The grouper holds the current group open
// until a fault with another (node, FirstAt) key arrives, so the last
// group closes only when Accumulators.Finish seals the stream. Figure and
// Stats are pure reads.
type SimultaneityAccum struct {
	fig     SimultaneityFigure
	st      extract.SimultaneityStats
	grouper *extract.Grouper
}

// NewSimultaneityAccum returns an empty accumulator.
func NewSimultaneityAccum() *SimultaneityAccum {
	a := &SimultaneityAccum{}
	a.grouper = extract.NewGrouper(a.close)
	return a
}

// close folds one completed group.
func (a *SimultaneityAccum) close(g extract.Group) {
	a.fig.PerNode[BitClass(g.TotalBits())]++
	a.st.Observe(g)
}

// Observe folds one fault of a canonically ordered stream.
func (a *SimultaneityAccum) Observe(f extract.Fault) {
	a.fig.PerWord[BitClass(f.BitCount())]++
	a.grouper.Observe(f)
}

// merge folds b's closed groups into a, and b's open group as closed.
func (a *SimultaneityAccum) merge(b *SimultaneityAccum) {
	for c := range a.fig.PerWord {
		a.fig.PerWord[c] += b.fig.PerWord[c]
		a.fig.PerNode[c] += b.fig.PerNode[c]
	}
	a.st.Merge(b.st)
	if g, ok := b.grouper.Pending(); ok {
		a.close(g)
	}
}

// Figure returns Fig 4: per-word counts over every observed fault,
// per-node counts over every closed group.
func (a *SimultaneityAccum) Figure() *SimultaneityFigure {
	fig := a.fig
	return &fig
}

// Stats returns the §III-C aggregates over every closed group.
func (a *SimultaneityAccum) Stats() extract.SimultaneityStats { return a.st }

// Chart renders Fig 4 on a log scale (counts span orders of magnitude).
func (f *SimultaneityFigure) Chart() *render.BarChart {
	chart := &render.BarChart{
		Title: "Fig 4: simultaneous memory errors vs multi-bit errors",
		LogY:  true,
	}
	for c := 1; c <= 6; c++ {
		chart.XLabels = append(chart.XLabels, BitClassLabels[c])
	}
	word := make([]float64, 6)
	node := make([]float64, 6)
	for c := 1; c <= 6; c++ {
		word[c-1] = f.PerWord[c]
		node[c-1] = f.PerNode[c]
	}
	chart.Series = append(chart.Series,
		render.Series{Label: "per memory word", Values: word},
		render.Series{Label: "per node", Values: node},
	)
	return chart
}
