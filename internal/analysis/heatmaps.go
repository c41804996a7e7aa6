package analysis

import (
	"fmt"

	"unprotected/internal/cluster"
	"unprotected/internal/render"
)

// nodeGrid builds a blades×SoCs grid over topo's monitored blades (the
// paper's heat maps show 63 blades × 15 SoCs), or every blade when topo
// is nil, filling each cell from f.
func nodeGrid(topo *cluster.Topology, title string, log bool, f func(cluster.NodeID) float64) *render.Grid {
	blades := []int{}
	if topo != nil {
		blades = topo.MonitoredBlades()
	} else {
		for b := 1; b <= cluster.TotalBlades; b++ {
			blades = append(blades, b)
		}
	}
	g := &render.Grid{Title: title, Log: log}
	for s := 1; s <= cluster.SoCsPerBlade; s++ {
		g.ColLabels = append(g.ColLabels, fmt.Sprint(s))
	}
	for _, b := range blades {
		row := make([]float64, cluster.SoCsPerBlade)
		for s := 1; s <= cluster.SoCsPerBlade; s++ {
			row[s-1] = f(cluster.NodeID{Blade: b, SoC: s})
		}
		g.RowLabels = append(g.RowLabels, fmt.Sprintf("blade %02d", b))
		g.Values = append(g.Values, row)
	}
	return g
}

// HoursHeatmap is Fig 1: hours each node was scanned for memory errors,
// read from the headline's exact per-node sums over the nodes of topo.
func HoursHeatmap(h *HeadlineAccum, topo *cluster.Topology) *render.Grid {
	return nodeGrid(topo, "Fig 1: hours of memory-error scanning per node", false,
		func(id cluster.NodeID) float64 {
			hours, _ := h.Node(id)
			return float64(hours)
		})
}

// TBhHeatmap is Fig 2: terabyte-hours of memory analyzed per node, read
// from the headline's exact per-node sums over the nodes of topo.
func TBhHeatmap(h *HeadlineAccum, topo *cluster.Topology) *render.Grid {
	return nodeGrid(topo, "Fig 2: memory analyzed per node (terabyte-hours)", false,
		func(id cluster.NodeID) float64 {
			_, tbh := h.Node(id)
			return float64(tbh)
		})
}

// ErrorsHeatmap is Fig 3: independent memory errors per node, on a log
// color scale because counts span five orders of magnitude.
func ErrorsHeatmap(d *Dataset) *render.Grid {
	byNode := d.ByNode()
	return nodeGrid(d.Topo, "Fig 3: independent memory errors per node (log scale)", true,
		func(id cluster.NodeID) float64 { return float64(len(byNode[id])) })
}

// HeatmapStats summarizes a grid for assertions and EXPERIMENTS.md.
type HeatmapStats struct {
	NonZero int
	Max     float64
	Mean    float64 // over non-zero cells
}

// GridStats computes summary statistics of a grid.
func GridStats(g *render.Grid) HeatmapStats {
	var st HeatmapStats
	var sum float64
	for _, row := range g.Values {
		for _, v := range row {
			if v > 0 {
				st.NonZero++
				sum += v
				if v > st.Max {
					st.Max = v
				}
			}
		}
	}
	if st.NonZero > 0 {
		st.Mean = sum / float64(st.NonZero)
	}
	return st
}
