package monitor

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"unprotected/internal/analysis"
	"unprotected/internal/core"
	"unprotected/internal/logstore"
)

// Snapshot is one published epoch: a complete, immutable view of the
// study at a poll-round boundary. Everything in it is computed before the
// pointer swap, so readers only ever load and format — no computation
// races ingest, and two readers of one epoch always see identical bytes.
type Snapshot struct {
	// Epoch increments per publish; /healthz and the tests use it to
	// detect progress.
	Epoch int64
	// Study is the full analysis at this epoch, rebuilt in canonical
	// order (see rebuild); immutable by convention.
	Study *core.Study
	// Report is the JSON view served by /study.
	Report *Report
	// studyJSON is Report pre-marshalled: /study is a write, not a
	// marshal, and every GET of one epoch returns identical bytes.
	studyJSON []byte
	// etag is /study's entity tag, the quoted epoch: the bytes of one
	// epoch never change, so a client holding them revalidates for free.
	etag string
	// byNode indexes Report.Nodes for the per-node verdict endpoint.
	byNode map[string]*NodeVerdict
}

// Report is the deterministic JSON shape of /study. All fields derive
// from the Study's figure accumulators; float fields are sanitized
// (NaN/Inf become 0) so an empty or fault-free directory still marshals.
type Report struct {
	Epoch int64 `json:"epoch"`
	// Ingest counters frozen at publish time.
	Rounds      int64 `json:"rounds"`
	Lines       int64 `json:"lines"`
	Files       int64 `json:"files"`
	Truncations int64 `json:"truncations"`

	Headline     HeadlineReport     `json:"headline"`
	MultiBit     MultiBitReport     `json:"multi_bit"`
	Simultaneity SimultaneityReport `json:"simultaneity"`
	Regimes      RegimesReport      `json:"regimes"`
	HourOfDay    HourOfDayReport    `json:"hour_of_day"`
	Nodes        []NodeVerdict      `json:"nodes"`
}

// HeadlineReport mirrors the §III-B headline block of FullReport.
type HeadlineReport struct {
	RawLogs            int64   `json:"raw_logs"`
	TopRawNode         string  `json:"top_raw_node,omitempty"`
	TopNodeRawShare    float64 `json:"top_node_raw_share"`
	IndependentFaults  int     `json:"independent_faults"`
	MultiBitFaults     int     `json:"multi_bit_faults"`
	NodeHours          float64 `json:"node_hours"`
	TotalTBh           float64 `json:"total_tbh"`
	FaultsPerTBh       float64 `json:"faults_per_tbh"`
	NodesScanned       int     `json:"nodes_scanned"`
	NodesWithFaults    int     `json:"nodes_with_faults"`
	ClusterMTBFMinutes float64 `json:"cluster_mtbf_minutes"`
	NodeMTBFHours      float64 `json:"node_mtbf_hours"`
	Ones2Zeros         int     `json:"ones_to_zeros"`
	Zeros2Ones         int     `json:"zeros_to_ones"`
}

// MultiBitReport mirrors the Table I aggregates (§III-C).
type MultiBitReport struct {
	TotalEvents     int     `json:"total_events"`
	DoubleBitEvents int     `json:"double_bit_events"`
	OverTwoBits     int     `json:"over_two_bits"`
	OverThreeBits   int     `json:"over_three_bits"`
	NonConsecutive  int     `json:"non_consecutive"`
	MeanGap         float64 `json:"mean_gap"`
	MaxGap          int     `json:"max_gap"`
	LSBShare        float64 `json:"lsb_share"`
}

// SimultaneityReport mirrors the Fig 4 aggregates (§III-C).
type SimultaneityReport struct {
	FaultsInGroups    int `json:"faults_in_groups"`
	SingleBitOnly     int `json:"single_bit_only"`
	DoubleWithSingle  int `json:"double_with_single"`
	TripleWithSingle  int `json:"triple_with_single"`
	DoubleDoublePairs int `json:"double_double_pairs"`
	MaxGroupBits      int `json:"max_group_bits"`
}

// RegimesReport mirrors the Fig 13 day classification (§III-I).
type RegimesReport struct {
	NormalDays        int     `json:"normal_days"`
	DegradedDays      int     `json:"degraded_days"`
	NormalErrors      int     `json:"normal_errors"`
	DegradedErrors    int     `json:"degraded_errors"`
	MTBFNormalHours   float64 `json:"mtbf_normal_hours"`
	MTBFDegradedHours float64 `json:"mtbf_degraded_hours"`
}

// HourOfDayReport mirrors the Figs 5-6 day/night summary (§III-E).
type HourOfDayReport struct {
	DayNightRatioAll      float64 `json:"day_night_ratio_all"`
	DayNightRatioMultiBit float64 `json:"day_night_ratio_multi_bit"`
	MultiBitPeakHour      int     `json:"multi_bit_peak_hour"`
}

// NodeVerdict is one node's standing in the fleet at this epoch.
type NodeVerdict struct {
	Node     string  `json:"node"`
	Class    string  `json:"class"`
	Faults   int     `json:"faults"`
	MultiBit int     `json:"multi_bit"`
	RawLogs  int64   `json:"raw_logs"`
	Sessions int     `json:"sessions"`
	Open     int     `json:"open_sessions"`
	Hours    float64 `json:"hours"`
	TBh      float64 `json:"tbh"`
	Excluded bool    `json:"excluded,omitempty"`
}

// Verdict classes, from best to worst. A node is pathological when it
// contributes the majority of the fleet's raw error volume while its
// errors collapse to few independent faults — the paper's 38-03 profile.
const (
	ClassClean        = "clean"
	ClassFaulty       = "faulty"
	ClassMultiBit     = "multi-bit"
	ClassPathological = "pathological"
)

// sanitize clamps the non-finite float artifacts of an empty study
// (0/0 rates, MTBF of zero faults) to zero so the report always marshals.
func sanitize(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// newSnapshot derives the full published view from a rebuilt Study and
// the live tail counters. It runs on the ingest goroutine, before the
// epoch swap; a marshal failure is impossible after sanitization, so it
// panics rather than publishing a half-built epoch.
func newSnapshot(epoch int64, study *core.Study, nodes []NodeVerdict, st *logstore.FollowStats) *Snapshot {
	h := study.Headline()
	mb := study.MultiBitStats()
	sim := study.SimultaneityStats()
	reg := study.RegimesFigure()
	hod := study.HourOfDayFigure()

	rep := &Report{
		Epoch:       epoch,
		Rounds:      st.Rounds.Load(),
		Lines:       st.Lines.Load(),
		Files:       st.Files.Load(),
		Truncations: st.Truncations.Load(),
		Headline: HeadlineReport{
			RawLogs:            h.RawLogs,
			TopNodeRawShare:    sanitize(h.TopNodeRawShare),
			IndependentFaults:  h.IndependentFaults,
			MultiBitFaults:     h.MultiBitFaults,
			NodeHours:          sanitize(float64(h.NodeHours)),
			TotalTBh:           sanitize(float64(h.TotalTBh)),
			FaultsPerTBh:       rate(float64(h.IndependentFaults), float64(h.TotalTBh)),
			NodesScanned:       h.NodesScanned,
			NodesWithFaults:    h.NodesWithFaults,
			ClusterMTBFMinutes: sanitize(h.ClusterMTBFMinutes),
			NodeMTBFHours:      sanitize(h.NodeMTBFHours),
			Ones2Zeros:         h.Ones2Zeros,
			Zeros2Ones:         h.Zeros2Ones,
		},
		MultiBit: MultiBitReport{
			TotalEvents:     mb.TotalEvents,
			DoubleBitEvents: mb.DoubleBitEvents,
			OverTwoBits:     mb.OverTwoBits,
			OverThreeBits:   mb.OverThreeBits,
			NonConsecutive:  mb.NonConsecutive,
			MeanGap:         sanitize(mb.MeanGap),
			MaxGap:          mb.MaxGap,
			LSBShare:        sanitize(mb.LSBShare),
		},
		Simultaneity: SimultaneityReport{
			FaultsInGroups:    sim.FaultsInGroups,
			SingleBitOnly:     sim.SingleBitOnly,
			DoubleWithSingle:  sim.DoubleWithSingle,
			TripleWithSingle:  sim.TripleWithSingle,
			DoubleDoublePairs: sim.DoubleDoublePairs,
			MaxGroupBits:      sim.MaxGroupBits,
		},
		Regimes: RegimesReport{
			NormalDays:        reg.NormalDays,
			DegradedDays:      reg.DegradedDays,
			NormalErrors:      reg.NormalErrors,
			DegradedErrors:    reg.DegradedErrors,
			MTBFNormalHours:   sanitize(reg.MTBFNormalHours),
			MTBFDegradedHours: sanitize(reg.MTBFDegradedHours),
		},
		HourOfDay: HourOfDayReport{
			DayNightRatioAll:      sanitize(analysis.DayNightRatio(hod.Total())),
			DayNightRatioMultiBit: sanitize(analysis.DayNightRatio(hod.MultiBit())),
			MultiBitPeakHour:      analysis.PeakHour(hod.MultiBit()),
		},
	}
	if h.RawLogs > 0 {
		rep.Headline.TopRawNode = h.TopRawNode.String()
	}
	rep.Nodes = nodes

	body, err := json.Marshal(rep)
	if err != nil {
		panic(fmt.Sprintf("monitor: snapshot marshal: %v", err))
	}
	snap := &Snapshot{
		Epoch:     epoch,
		Study:     study,
		Report:    rep,
		studyJSON: body,
		etag:      `"` + strconv.FormatInt(epoch, 10) + `"`,
		byNode:    make(map[string]*NodeVerdict, len(rep.Nodes)),
	}
	for i := range rep.Nodes {
		snap.byNode[rep.Nodes[i].Node] = &rep.Nodes[i]
	}
	return snap
}

// rate is a sanitized division: zero denominator yields zero, not Inf.
func rate(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return sanitize(num / den)
}

// verdicts classifies every node with a fault or a session, in node
// order, from the nodes' partials and counts; rawLogs is the fleet's raw
// ERROR volume.
func (m *Monitor) verdicts(rawLogs int64) []NodeVerdict {
	out := make([]NodeVerdict, 0, len(m.order))
	for _, id := range m.order {
		ns := m.nodes[id]
		if ns.faults == 0 && ns.sessions == 0 {
			continue
		}
		h := ns.sess.Headline.Headline(0, nil, nil)
		v := NodeVerdict{
			Node:     id.String(),
			Faults:   ns.faults,
			MultiBit: ns.part.Headline.Headline(0, nil, nil).MultiBitFaults,
			RawLogs:  ns.logs,
			Sessions: ns.sessions,
			Open:     ns.open,
			Hours:    sanitize(float64(h.NodeHours)),
			TBh:      sanitize(float64(h.TotalTBh)),
			Excluded: id == m.controllerID,
		}
		switch {
		// The paper's pathological profile: the fleet's dominant raw-log
		// source (>50% of all raw volume) whose flood collapses to few
		// independent faults — exactly how 38-03 presented (§III-A).
		case rawLogs > 0 && v.RawLogs*2 > rawLogs:
			v.Class = ClassPathological
		case v.MultiBit > 0:
			v.Class = ClassMultiBit
		case v.Faults > 0:
			v.Class = ClassFaulty
		default:
			v.Class = ClassClean
		}
		out = append(out, v)
	}
	return out
}
