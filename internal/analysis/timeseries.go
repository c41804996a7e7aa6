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
)

// DailyAccum is the incremental form of the Figs 9–11 time series: it
// accumulates scanned TBh per day from sessions and error counts per day
// and bit class from faults, one element at a time.
type DailyAccum struct {
	// Scanned[day] is terabyte-hours of memory analyzed (Fig 9).
	Scanned []float64
	// Errors[class][day] counts faults; class 0 aggregates everything.
	Errors [7][]float64
}

// NewDailyAccum returns an empty accumulator spanning the study window.
func NewDailyAccum() *DailyAccum {
	a := &DailyAccum{Scanned: make([]float64, timebase.StudyDays)}
	for c := 0; c <= 6; c++ {
		a.Errors[c] = make([]float64, timebase.StudyDays)
	}
	return a
}

// ObserveSession splits one session's TBh across the local days it
// overlaps (DST-aware).
func (a *DailyAccum) ObserveSession(s eventlog.Session) {
	if s.Duration() == 0 {
		return
	}
	tbPerSec := float64(s.AllocBytes) / float64(int64(1)<<40) / 3600
	for t := s.From; t < s.To; {
		day := t.Day()
		// Step to the next local midnight.
		next := t + timebase.T(86400-t.SecondsIntoLocalDay())
		if next <= t {
			next = t + 86400
		}
		if next > s.To {
			next = s.To
		}
		if day >= 0 && day < len(a.Scanned) {
			a.Scanned[day] += float64(next-t) * tbPerSec
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
	a.Errors[0][day]++
	a.Errors[BitClass(f.BitCount())][day]++
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
