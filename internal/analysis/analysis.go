// Package analysis computes every figure and table of the paper's §III.
// The figures that stream are one-pass accumulators, bundled in
// Accumulators and sealed by its Finish; their sums are exact, so bundles
// over the parts of a stream Merge to the figures of the whole: the
// §III-B headline with the per-node hours and TBh of Figs 1–2,
// simultaneity (Fig 4 and §III-C), the multi-bit aggregates, hour-of-day
// and temperature distributions (Figs 5–8), the daily series and their
// correlation (Figs 9–11, §III-G) and the regime split (Fig 13). The rest
// read a collected Dataset's faults: the heat map of errors per node
// (Fig 3), the multi-bit table (Table I), top nodes and spatial
// concentration (Fig 12, §III-H) and the isolated SDC events (§III-D).
// No figure reads the Dataset's sessions.
// The package is deliberately independent of the campaign package: the
// stream and the Dataset can come from the simulator, from parsed log
// files, or from a test fixture.
package analysis

import (
	"sync"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/timebase"
	"unprotected/internal/units"
)

// Dataset is the analysis input: independent faults (§II-C extraction
// already applied, pathological node excluded) plus session accounting.
// No figure reads Sessions — the accumulators fold them as they stream —
// but the batch sources fill it for the exporters (campaign -logdir and
// -sessions); the live monitor's snapshots leave it empty.
type Dataset struct {
	Faults   []extract.Fault
	Sessions []eventlog.Session
	// RawLogs counts every ERROR record, including the pathological node.
	RawLogs       int64
	RawLogsByNode map[cluster.NodeID]int64
	Topo          *cluster.Topology

	// ControllerNode (02-04) is excluded from MTBF/regime/quarantine
	// analyses per §III-I; zero value disables the exclusion.
	ControllerNode cluster.NodeID
	// PathologicalNode produced ~98% of raw logs and no characterized
	// faults.
	PathologicalNode cluster.NodeID

	byNodeOnce sync.Once
	byNode     map[cluster.NodeID][]extract.Fault
}

// ByNode indexes faults per node. The index is built on the first call,
// once even under concurrent callers, and read-only afterwards: the
// Faults slice must not change after that first call.
func (d *Dataset) ByNode() map[cluster.NodeID][]extract.Fault {
	d.byNodeOnce.Do(func() {
		d.byNode = make(map[cluster.NodeID][]extract.Fault)
		for _, f := range d.Faults {
			d.byNode[f.Node] = append(d.byNode[f.Node], f)
		}
	})
	return d.byNode
}

// FaultsExcluding returns faults not on the given nodes, preserving order.
func (d *Dataset) FaultsExcluding(nodes ...cluster.NodeID) []extract.Fault {
	skip := make(map[cluster.NodeID]bool, len(nodes))
	for _, n := range nodes {
		skip[n] = true
	}
	var out []extract.Fault
	for _, f := range d.Faults {
		if !skip[f.Node] {
			out = append(out, f)
		}
	}
	return out
}

// MultiBitFaults returns the faults corrupting >1 bit of one word.
func (d *Dataset) MultiBitFaults() []extract.Fault {
	var out []extract.Fault
	for _, f := range d.Faults {
		if f.MultiBit() {
			out = append(out, f)
		}
	}
	return out
}

// BitClass buckets a per-word bit count into the paper's figure classes:
// 1..5 individually, 6 and above together ("6+").
func BitClass(bits int) int {
	if bits >= 6 {
		return 6
	}
	return bits
}

// BitClassLabels are the legend labels for the classes.
var BitClassLabels = []string{"", "1-bit", "2-bit", "3-bit", "4-bit", "5-bit", "6+bit"}

// Headline is §III-B's summary box.
type Headline struct {
	RawLogs            int64
	TopNodeRawShare    float64 // fraction of raw logs from the worst node
	TopRawNode         cluster.NodeID
	IndependentFaults  int
	MultiBitFaults     int
	NodeHours          units.NodeHours
	TotalTBh           units.TBh
	NodesScanned       int
	NodesWithFaults    int
	ClusterMTBFMinutes float64 // study minutes per independent fault
	NodeMTBFHours      float64 // monitored node-hours per independent fault
	Ones2Zeros         int
	Zeros2Ones         int
}

// HeadlineAccum accumulates the §III-B summary and the per-node grids of
// Figs 1–2: faults and sessions stream in one at a time; Headline
// finalizes against the scalar raw-log aggregates and topology. Each
// node's monitored time is kept in integer seconds and its memory-time in
// integer byte-seconds, and the fleet's totals are their sum, so every
// figure is exact and merges in any order. The per-node sums are keyed
// sparsely: a bundle holds an entry only for the nodes it saw monitored.
type HeadlineAccum struct {
	faults          int
	multiBit        int
	ones2Zeros      int
	zeros2Ones      int
	scanned         map[cluster.NodeID]nodeTime
	nodesWithFaults map[cluster.NodeID]bool
}

// nodeTime is one node's exact monitored time and memory-time.
type nodeTime struct {
	seconds  int64
	byteSecs units.ByteSeconds
}

// add returns t plus u.
func (t nodeTime) add(u nodeTime) nodeTime {
	return nodeTime{t.seconds + u.seconds, t.byteSecs.Add(u.byteSecs)}
}

// NewHeadlineAccum returns an empty accumulator.
func NewHeadlineAccum() *HeadlineAccum { return &HeadlineAccum{} }

// ObserveFault folds one fault into the aggregates.
func (a *HeadlineAccum) ObserveFault(f extract.Fault) {
	a.faults++
	a.ones2Zeros += f.Ones2Zeros.Count()
	a.zeros2Ones += f.Zeros2Ones.Count()
	if f.MultiBit() {
		a.multiBit++
	}
	if a.nodesWithFaults == nil {
		a.nodesWithFaults = make(map[cluster.NodeID]bool)
	}
	a.nodesWithFaults[f.Node] = true
}

// ObserveSession folds one session into its node's hours/TBh accounting.
func (a *HeadlineAccum) ObserveSession(s eventlog.Session) {
	secs := s.Seconds()
	if secs == 0 {
		return
	}
	a.addTime(s.Host, nodeTime{secs, units.ByteSecondsOf(s.AllocBytes, secs)})
}

// addTime adds t to node id's monitored time.
func (a *HeadlineAccum) addTime(id cluster.NodeID, t nodeTime) {
	if a.scanned == nil {
		a.scanned = make(map[cluster.NodeID]nodeTime)
	}
	a.scanned[id] = a.scanned[id].add(t)
}

// Node returns node id's monitored hours (Fig 1) and terabyte-hours of
// memory analyzed (Fig 2), each converted once from its exact sum.
func (a *HeadlineAccum) Node(id cluster.NodeID) (units.NodeHours, units.TBh) {
	t := a.scanned[id]
	return units.NodeHours(float64(t.seconds) / 3600), t.byteSecs.TBh()
}

// merge folds b's aggregates into a.
func (a *HeadlineAccum) merge(b *HeadlineAccum) {
	a.faults += b.faults
	a.multiBit += b.multiBit
	a.ones2Zeros += b.ones2Zeros
	a.zeros2Ones += b.zeros2Ones
	for id, t := range b.scanned {
		a.addTime(id, t)
	}
	if len(b.nodesWithFaults) > 0 && a.nodesWithFaults == nil {
		a.nodesWithFaults = make(map[cluster.NodeID]bool, len(b.nodesWithFaults))
	}
	for id := range b.nodesWithFaults {
		a.nodesWithFaults[id] = true
	}
}

// Headline finalizes the §III-B summary. rawLogs and rawLogsByNode are the
// scalar aggregates (they never stream — they are counted, not collected),
// topo may be nil.
func (a *HeadlineAccum) Headline(rawLogs int64, rawLogsByNode map[cluster.NodeID]int64, topo *cluster.Topology) Headline {
	var total nodeTime
	for _, t := range a.scanned {
		total = total.add(t)
	}
	h := Headline{
		RawLogs:           rawLogs,
		IndependentFaults: a.faults,
		MultiBitFaults:    a.multiBit,
		Ones2Zeros:        a.ones2Zeros,
		Zeros2Ones:        a.zeros2Ones,
		NodeHours:         units.NodeHours(float64(total.seconds) / 3600),
		TotalTBh:          total.byteSecs.TBh(),
		NodesWithFaults:   len(a.nodesWithFaults),
	}
	var maxRaw int64
	for id, n := range rawLogsByNode {
		// Strict ordering with a node-index tiebreak: map iteration order
		// must not pick the reported worst node on equal raw volumes.
		if n > maxRaw || (n == maxRaw && n > 0 && id.Index() < h.TopRawNode.Index()) {
			maxRaw = n
			h.TopRawNode = id
		}
	}
	if rawLogs > 0 {
		h.TopNodeRawShare = float64(maxRaw) / float64(rawLogs)
	}
	if topo != nil {
		h.NodesScanned = topo.CountByRole()[cluster.Scanned]
	}
	if a.faults > 0 {
		h.ClusterMTBFMinutes = float64(timebase.StudySeconds) / 60 / float64(a.faults)
		h.NodeMTBFHours = float64(h.NodeHours) / float64(a.faults)
	}
	return h
}

// Ones2ZerosFraction returns the fraction of corrupted bits that flipped
// 1→0 (the paper: about 90%).
func (h Headline) Ones2ZerosFraction() float64 {
	total := h.Ones2Zeros + h.Zeros2Ones
	if total == 0 {
		return 0
	}
	return float64(h.Ones2Zeros) / float64(total)
}
