package analysis

import (
	"fmt"
	"sort"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/render"
	"unprotected/internal/stats"
	"unprotected/internal/timebase"
	"unprotected/internal/units"
)

// DailyAccum is the incremental form of the Figs 9–11 time series: it
// accumulates memory scanned per day from sessions and error counts per
// day and bit class from faults, one element at a time. Scanned memory is
// kept as exact byte-seconds per day; Scanned, its TBh view, is derived
// when the bundle is sealed. Each half is allocated on its first
// observation.
type DailyAccum struct {
	// Scanned[day] is terabyte-hours of memory analyzed (Fig 9), derived
	// from the per-day byte-seconds by Accumulators.Finish.
	Scanned []float64
	// Errors[class][day] counts faults; class 0 aggregates everything.
	Errors [7][]float64

	byteSecs []int64
}

// NewDailyAccum returns an empty accumulator spanning the study window.
func NewDailyAccum() *DailyAccum { return &DailyAccum{} }

// ObserveSession splits one session's byte-seconds across the local days
// it overlaps. Each day ends at the next local midnight, found by day
// number, so the spring-forward day gets its 23 hours and the fall-back
// day its 25.
func (a *DailyAccum) ObserveSession(s eventlog.Session) {
	if s.Seconds() == 0 {
		return
	}
	if a.byteSecs == nil {
		a.byteSecs = make([]int64, timebase.StudyDays)
	}
	for t, day := s.From, s.From.Day(); t < s.To; day++ {
		next := min(timebase.DayStart(day+1), s.To)
		if day >= 0 && day < len(a.byteSecs) {
			a.byteSecs[day] += int64(next-t) * s.AllocBytes
		}
		t = next
	}
}

// ObserveFault buckets one fault by study day and bit class.
func (a *DailyAccum) ObserveFault(f extract.Fault) {
	day := f.FirstAt.Day()
	if day < 0 || day >= timebase.StudyDays {
		return
	}
	if a.Errors[0] == nil {
		a.allocErrors()
	}
	a.Errors[0][day]++
	a.Errors[BitClass(f.BitCount())][day]++
}

func (a *DailyAccum) allocErrors() {
	for c := range a.Errors {
		a.Errors[c] = make([]float64, timebase.StudyDays)
	}
}

// merge adds b's per-day sums into a.
func (a *DailyAccum) merge(b *DailyAccum) {
	if b.byteSecs != nil {
		if a.byteSecs == nil {
			a.byteSecs = make([]int64, timebase.StudyDays)
		}
		for day, v := range b.byteSecs {
			a.byteSecs[day] += v
		}
	}
	if b.Errors[0] != nil {
		if a.Errors[0] == nil {
			a.allocErrors()
		}
		for c := range a.Errors {
			for day, v := range b.Errors[c] {
				a.Errors[c][day] += v
			}
		}
	}
}

// seal allocates whatever half is still missing and derives Scanned from
// the byte-seconds.
func (a *DailyAccum) seal() {
	if a.Errors[0] == nil {
		a.allocErrors()
	}
	if a.Scanned == nil {
		a.Scanned = make([]float64, timebase.StudyDays)
	}
	for day, v := range a.byteSecs {
		a.Scanned[day] = float64(v) / float64(units.TiB) / 3600
	}
}

// Correlation is §III-G: the Pearson correlation between daily scanned
// TBh and daily error counts. The paper measured r = −0.17966 with
// p = 0.0002 and concluded the scanning methodology does not drive the
// observed error counts.
func (a *DailyAccum) Correlation() (stats.PearsonResult, error) {
	return stats.Pearson(a.Scanned, a.Errors[0])
}

// TopNode summarizes one node's contribution for Fig 12.
type TopNode struct {
	Node  cluster.NodeID
	Total int
	Daily []float64
}

// TopNodes is Fig 12: the highest-error nodes individually, everything
// else aggregated ("purple"). n is how many nodes to break out (the paper
// shows three).
func TopNodes(d *Dataset, n int) (top []TopNode, rest TopNode) {
	byNode := d.ByNode()
	type kv struct {
		id cluster.NodeID
		c  int
	}
	var order []kv
	for id, fs := range byNode {
		order = append(order, kv{id, len(fs)})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].c != order[j].c {
			return order[i].c > order[j].c
		}
		return order[i].id.Index() < order[j].id.Index()
	})
	pick := make(map[cluster.NodeID]int)
	for i := 0; i < n && i < len(order); i++ {
		pick[order[i].id] = i
		top = append(top, TopNode{
			Node:  order[i].id,
			Total: order[i].c,
			Daily: make([]float64, timebase.StudyDays),
		})
	}
	rest = TopNode{Daily: make([]float64, timebase.StudyDays)}
	for _, f := range d.Faults {
		day := f.FirstAt.Day()
		if day < 0 || day >= timebase.StudyDays {
			continue
		}
		if i, ok := pick[f.Node]; ok {
			top[i].Daily[day]++
		} else {
			rest.Daily[day]++
			rest.Total++
		}
	}
	return top, rest
}

// MonthlySeries compresses a daily series into per-month sums for compact
// rendering.
func MonthlySeries(daily []float64) (labels []string, sums []float64) {
	idx := make(map[string]int)
	for day, v := range daily {
		d := timebase.Epoch.AddDate(0, 0, day)
		key := d.Format("2006-01")
		i, ok := idx[key]
		if !ok {
			i = len(sums)
			idx[key] = i
			labels = append(labels, key)
			sums = append(sums, 0)
		}
		sums[i] += v
	}
	return labels, sums
}

// DailyChart renders one or more daily series as monthly bars.
func DailyChart(title string, series map[string][]float64) *render.BarChart {
	chart := &render.BarChart{Title: title}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		labels, sums := MonthlySeries(series[name])
		if chart.XLabels == nil {
			chart.XLabels = labels
		}
		chart.Series = append(chart.Series, render.Series{Label: name, Values: sums})
	}
	return chart
}

// FormatNode renders a node label for chart legends.
func FormatNode(id cluster.NodeID) string { return fmt.Sprintf("node %s", id) }
