package analysis

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/rng"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

// accumFixture builds a synthetic dataset with enough structure to
// exercise every accumulator: multiple nodes, FirstAt ties (simultaneity
// groups), a multi-bit mix, pre- and post-telemetry temperatures, multi-day
// sessions and an excluded controller node.
func accumFixture() *Dataset {
	r := rng.New(5)
	day := timebase.T(86400)
	controller := cluster.NodeID{Blade: 2, SoC: 4}
	var faults []extract.Fault
	var sessions []eventlog.Session
	rawByNode := make(map[cluster.NodeID]int64)
	var raw int64
	for n := 0; n < 12; n++ {
		host := cluster.NodeID{Blade: n/4 + 1, SoC: n%4 + 1}
		if n == 5 {
			host = controller
		}
		for i := 0; i < 40; i++ {
			at := day*timebase.T(5+i%200) + timebase.T((i/3)*977)
			temp := thermal.NoReading
			if i%4 != 0 {
				temp = 20 + r.Float64()*45
			}
			mask := uint32(1) << (i % 32)
			if i%9 == 0 {
				mask |= 1 << ((i + 7) % 32)
			}
			if i%27 == 0 {
				mask |= 0xf << (i % 20)
			}
			logs := 1 + r.IntN(30)
			faults = append(faults, extract.Classify(extract.RawRun{
				Node: host, Addr: dram.Addr(i * 31), FirstAt: at, LastAt: at + 30,
				Logs: logs, Expected: 0xffffffff, Actual: 0xffffffff ^ mask,
				TempC: temp,
			}))
			raw += int64(logs)
			rawByNode[host] += int64(logs)
		}
		for s := 0; s < 10; s++ {
			from := day*timebase.T(3*s) + timebase.T(r.IntN(7200))
			sess := eventlog.Session{Host: host, From: from, To: from + day + 3600, AllocBytes: 3 << 30}
			if s%5 == 2 {
				sess.Truncated = true
			}
			sessions = append(sessions, sess)
		}
	}
	extract.SortFaults(faults)
	return &Dataset{
		Faults: faults, Sessions: sessions,
		RawLogs: raw, RawLogsByNode: rawByNode,
		Topo:           cluster.PaperTopology(),
		ControllerNode: controller,
	}
}

// TestAccumulatorsMatchReference checks every streamed figure against a
// reference written here from the paper's definitions, sharing no code
// with the accumulators: local hours and study days come from the time
// package through timebase.ToLocal, bit counts and flip directions from
// the raw words, simultaneity groups from the map-keyed extract.Groups.
// The fixture gains faults on both sides of both 2015 DST switches and of
// one local midnight, days with exactly three and four errors on either
// side of the degraded-day threshold, and sessions spanning both switch
// days, which the Fig 9 reference splits at the local midnights it finds
// hour by hour.
func TestAccumulatorsMatchReference(t *testing.T) {
	d := accumFixture()
	utc := func(m time.Month, day, h int) timebase.T {
		return timebase.FromTime(time.Date(2015, m, day, h, 0, 0, 0, time.UTC))
	}
	spring := utc(time.March, 29, 1)   // 02:00 CET becomes 03:00 CEST
	fall := utc(time.October, 25, 1)   // 03:00 CEST becomes 02:00 CET
	midnight := utc(time.June, 30, 22) // 2015-07-01 00:00 CEST
	for i, c := range []struct {
		at   timebase.T
		mask uint32
		temp float64
	}{
		// Three errors on 03-29 (a normal day), two of them one group.
		{spring - 1, 1 << 3, 17.5},
		{spring, 1 << 9, 20},
		{spring, 0x5 << 12, 71.9},
		// Four errors on 10-25 (a degraded day), two groups of two.
		{fall - 1, 1 << 30, 90},
		{fall - 1, 0x7f << 4, thermal.NoReading},
		{fall, 1 << 1, 19.999},
		{fall, 0x3 << 16, 45},
		{midnight - 1, 1, thermal.NoReading},
		{midnight, 0x101 << 7, 60.5},
	} {
		d.Faults = append(d.Faults, extract.Classify(extract.RawRun{
			Node: cluster.NodeID{Blade: 7, SoC: 1}, Addr: dram.Addr(4096 + i),
			FirstAt: c.at, LastAt: c.at + 30, Logs: 1,
			Expected: 0xffffffff, Actual: 0xffffffff ^ c.mask, TempC: c.temp,
		}))
	}
	extract.SortFaults(d.Faults)
	for _, c := range []struct{ from, to timebase.T }{
		{spring - 29*3600 + 17, spring + 30*3600 - 5},
		{spring - 3*3600, spring + 22*3600 + 1},
		{fall - 47*3600 + 600, fall + 26*3600},
		{midnight - 3600, midnight + 3600},
	} {
		d.Sessions = append(d.Sessions, eventlog.Session{
			Host: cluster.NodeID{Blade: 7, SoC: 1}, From: c.from, To: c.to, AllocBytes: 5<<30 + 12345,
		})
	}
	a := accumulate(d)

	// The reference, one fault at a time.
	localDay := func(at timebase.T) int {
		y, m, day := timebase.ToLocal(at.Time()).Date()
		return int(time.Date(y, m, day, 0, 0, 0, 0, time.UTC).Sub(timebase.Epoch) / (24 * time.Hour))
	}
	class := func(bits int) int { return min(bits, 6) }
	var (
		hours            [7][24]float64
		temps            [7][27]float64
		noReading        int
		daily            [7][]float64
		perWord, perNode [7]float64
		regimeErrors     = make([]float64, timebase.StudyDays)
		mb               MultiBitStats
		gapSum           float64
		lsb, flipped     int
		o2z, z2o         int
		nodes            = make(map[cluster.NodeID]bool)
	)
	for c := range daily {
		daily[c] = make([]float64, timebase.StudyDays)
	}
	for _, f := range d.Faults {
		diff := dram.BitSet(f.Expected ^ f.Actual)
		n := diff.Count()
		c := class(n)
		hours[c][timebase.ToLocal(f.FirstAt.Time()).Hour()]++
		day := localDay(f.FirstAt)
		daily[0][day]++
		daily[c][day]++
		if f.Node != d.ControllerNode {
			regimeErrors[day]++
		}
		if f.TempC == thermal.NoReading {
			noReading++
		} else {
			temps[c][min(max(int(math.Floor((f.TempC-18)/2)), 0), 26)]++
		}
		perWord[c]++
		o2z += dram.BitSet(f.Expected & uint32(diff)).Count()
		z2o += dram.BitSet(f.Actual & uint32(diff)).Count()
		nodes[f.Node] = true
		if n < 2 {
			continue
		}
		// Table I: a multi-bit event, its gaps from the bit positions.
		pos := diff.Positions()
		first, last := pos[0], pos[n-1]
		mb.TotalEvents++
		if n == 2 {
			mb.DoubleBitEvents++
		}
		if n > 2 {
			mb.OverTwoBits++
		}
		if n > 3 {
			mb.OverThreeBits++
		}
		if last-first+1 != n {
			mb.NonConsecutive++
		}
		for i := 1; i < n; i++ {
			mb.MaxGap = max(mb.MaxGap, pos[i]-pos[i-1]-1)
		}
		mb.MaxBits = max(mb.MaxBits, n)
		gapSum += float64(last-first+1-n) / float64(n-1)
		lsb += (diff & 0xffff).Count()
		flipped += n
	}
	mb.MeanGap = gapSum / float64(mb.TotalEvents)
	mb.LSBShare = float64(lsb) / float64(flipped)
	groups := extract.Groups(d.Faults)
	for _, g := range groups {
		bits := 0
		for _, f := range g.Faults {
			bits += dram.BitSet(f.Expected ^ f.Actual).Count()
		}
		perNode[class(bits)]++
	}

	// Fig 9: byte-seconds per local day. Local midnights fall on whole UTC
	// hours, so the reference walks each session hour by hour and cuts it
	// wherever the local date changes.
	scannedBytes := make([]int64, timebase.StudyDays)
	for _, s := range d.Sessions {
		if s.Truncated || s.To <= s.From {
			continue
		}
		from := s.From
		for cut := (s.From/3600 + 1) * 3600; from < s.To; cut += 3600 {
			end := min(cut, s.To)
			if end == s.To || localDay(cut) != localDay(cut-1) {
				scannedBytes[localDay(from)] += s.AllocBytes * int64(end-from)
				from = end
			}
		}
	}
	scanned := make([]float64, timebase.StudyDays)
	for day, b := range scannedBytes {
		scanned[day] = float64(b) / (1 << 40) / 3600
	}

	relClose := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
	if !reflect.DeepEqual(a.Daily.Scanned, scanned) {
		for day := range scanned {
			if a.Daily.Scanned[day] != scanned[day] {
				t.Errorf("day %s scanned %v TBh, want %v", timebase.DayLabel(day), a.Daily.Scanned[day], scanned[day])
			}
		}
	}
	// §III-G: Pearson's r between daily TBh and daily errors, by its
	// definition.
	var meanX, meanY float64
	for day := range scanned {
		meanX += scanned[day] / float64(len(scanned))
		meanY += daily[0][day] / float64(len(scanned))
	}
	var sxy, sxx, syy float64
	for day := range scanned {
		dx, dy := scanned[day]-meanX, daily[0][day]-meanY
		sxy, sxx, syy = sxy+dx*dy, sxx+dx*dx, syy+dy*dy
	}
	if pr, err := a.Daily.Correlation(); err != nil || math.Abs(pr.R-sxy/math.Sqrt(sxx*syy)) > 1e-9 || pr.N != len(scanned) {
		t.Errorf("Pearson %+v (%v), want r = %v over %d days", pr, err, sxy/math.Sqrt(sxx*syy), len(scanned))
	}
	if a.HourOfDay.Counts != hours {
		t.Errorf("hour of day:\n got %v\nwant %v", a.HourOfDay.Counts, hours)
	}
	for c := 1; c <= 6; c++ {
		if got := a.Temperature.Hists[c].Counts; !reflect.DeepEqual(got, temps[c][:]) {
			t.Errorf("temperature class %d:\n got %v\nwant %v", c, got, temps[c])
		}
	}
	if a.Temperature.NoReading != noReading {
		t.Errorf("no reading %d, want %d", a.Temperature.NoReading, noReading)
	}
	if !reflect.DeepEqual(a.Daily.Errors, daily) {
		t.Error("daily errors diverge from the reference")
	}
	st := a.MultiBit.Stats()
	if !relClose(st.MeanGap, mb.MeanGap) || !relClose(st.LSBShare, mb.LSBShare) {
		t.Errorf("multi-bit mean gap %v, LSB share %v; want %v, %v", st.MeanGap, st.LSBShare, mb.MeanGap, mb.LSBShare)
	}
	st.MeanGap, st.LSBShare, mb.MeanGap, mb.LSBShare = 0, 0, 0, 0
	if st != mb {
		t.Errorf("multi-bit stats:\n got %+v\nwant %+v", st, mb)
	}
	if got, want := *a.Simultaneity.Figure(), (SimultaneityFigure{PerWord: perWord, PerNode: perNode}); got != want {
		t.Errorf("Fig 4:\n got %+v\nwant %+v", got, want)
	}
	if got, want := a.Simultaneity.Stats(), extract.Simultaneity(groups); got != want {
		t.Errorf("simultaneity stats:\n got %+v\nwant %+v", got, want)
	}

	// Regimes: a day with more than three errors is degraded; MTBF is
	// wall-clock hours per error within each regime.
	wantReg := &Regimes{Degraded: make([]bool, timebase.StudyDays), ErrorsPerDay: regimeErrors}
	for day, n := range regimeErrors {
		if n > 3 {
			wantReg.Degraded[day] = true
			wantReg.DegradedDays++
			wantReg.DegradedErrors += int(n)
		} else {
			wantReg.NormalDays++
			wantReg.NormalErrors += int(n)
		}
	}
	wantReg.MTBFNormalHours = float64(wantReg.NormalDays*24) / float64(wantReg.NormalErrors)
	wantReg.MTBFDegradedHours = float64(wantReg.DegradedDays*24) / float64(wantReg.DegradedErrors)
	if got := a.Regimes.Finish(); !reflect.DeepEqual(got, wantReg) {
		t.Errorf("regimes:\n got %+v\nwant %+v", got, wantReg)
	}

	// Headline: monitored time in integer seconds and byte-seconds,
	// converted once; a truncated session counts zero (§II-B). The
	// fixture's ~3e16 byte-seconds fit an int64.
	var secs, byteSecs int64
	for _, s := range d.Sessions {
		if !s.Truncated && s.To > s.From {
			secs += int64(s.To - s.From)
			byteSecs += s.AllocBytes * int64(s.To-s.From)
		}
	}
	wantHours := float64(secs) / 3600
	wantTBh := float64(byteSecs) / (1 << 40) / 3600
	var top cluster.NodeID
	topRaw := int64(-1)
	for id, n := range d.RawLogsByNode {
		if n > topRaw || n == topRaw && id.Index() < top.Index() {
			top, topRaw = id, n
		}
	}
	h := a.Headline.Headline(d.RawLogs, d.RawLogsByNode, d.Topo)
	if !relClose(float64(h.NodeHours), wantHours) || !relClose(float64(h.TotalTBh), wantTBh) ||
		!relClose(h.NodeMTBFHours, wantHours/float64(len(d.Faults))) {
		t.Errorf("headline hours %v, TBh %v, node MTBF %v; want %v, %v, %v",
			h.NodeHours, h.TotalTBh, h.NodeMTBFHours, wantHours, wantTBh, wantHours/float64(len(d.Faults)))
	}
	h.NodeHours, h.TotalTBh, h.NodeMTBFHours = 0, 0, 0
	wantH := Headline{
		RawLogs:            d.RawLogs,
		TopNodeRawShare:    float64(topRaw) / float64(d.RawLogs),
		TopRawNode:         top,
		IndependentFaults:  len(d.Faults),
		MultiBitFaults:     mb.TotalEvents,
		NodesScanned:       923,
		NodesWithFaults:    len(nodes),
		ClusterMTBFMinutes: float64(timebase.StudySeconds) / 60 / float64(len(d.Faults)),
		Ones2Zeros:         o2z,
		Zeros2Ones:         z2o,
	}
	if h != wantH {
		t.Errorf("headline:\n got %+v\nwant %+v", h, wantH)
	}
}

// figureBytes renders every figure a sealed bundle serves. fmt prints a
// float in its shortest round-trip form, so two bundles render the same
// bytes exactly when every figure is bit-identical.
func figureBytes(a *Accumulators, d *Dataset) string {
	var b strings.Builder
	fmt.Fprintf(&b, "headline %+v\n", a.Headline.Headline(d.RawLogs, d.RawLogsByNode, d.Topo))
	fmt.Fprintf(&b, "hour of day %v\n", a.HourOfDay.Counts)
	for c := 1; c <= 6; c++ {
		fmt.Fprintf(&b, "temperature %d %v\n", c, a.Temperature.Hists[c].Counts)
	}
	fmt.Fprintf(&b, "no reading %d\n", a.Temperature.NoReading)
	fmt.Fprintf(&b, "multi-bit %+v\n", a.MultiBit.Stats())
	fmt.Fprintf(&b, "fig 4 %+v\nsimultaneity %+v\n", *a.Simultaneity.Figure(), a.Simultaneity.Stats())
	fmt.Fprintf(&b, "scanned %v\nerrors %v\n", a.Daily.Scanned, a.Daily.Errors)
	pr, err := a.Daily.Correlation()
	fmt.Fprintf(&b, "pearson %+v %v\n", pr, err)
	fmt.Fprintf(&b, "regimes %+v\n", *a.Regimes.Finish())
	return b.String()
}

// TestAccumulatorsMergeOrderFree is Merge's property: bundles fed any
// partition of the stream, in any order, fold to the figure bytes of one
// bundle fed the whole stream in canonical order. Half the trials give
// each node its own bundle fed that node's canonical stream, as the live
// monitor does; the other half scatter whole simultaneity groups (their
// faults shuffled) and single sessions over up to eight bundles in
// shuffled order. Some parts are sealed before they are merged, and the
// parts fold as a random tree, into one of them or into a fresh bundle.
// The fixture gains sessions of irregular lengths and sizes, whose hours
// and TBh summed as floats would depend on the order.
func TestAccumulatorsMergeOrderFree(t *testing.T) {
	d := accumFixture()
	r := rand.New(rand.NewPCG(18, 5))
	for i := 0; i < 300; i++ {
		from := timebase.T(r.Int64N(timebase.StudySeconds))
		d.Sessions = append(d.Sessions, eventlog.Session{
			Host: cluster.NodeID{Blade: 1 + i%5, SoC: 1 + i%3}, From: from, To: from + 1 + timebase.T(r.IntN(200000)),
			AllocBytes: 1<<30 + r.Int64N(3<<30),
		})
	}
	want := figureBytes(accumulate(d), d)
	groups := extract.Groups(d.Faults)
	for trial := 0; trial < 60; trial++ {
		var parts []*Accumulators
		if trial%2 == 0 {
			byNode := make(map[cluster.NodeID]*Accumulators)
			part := func(id cluster.NodeID) *Accumulators {
				if byNode[id] == nil {
					byNode[id] = NewAccumulators(d.ControllerNode)
					parts = append(parts, byNode[id])
				}
				return byNode[id]
			}
			for _, f := range d.Faults {
				part(f.Node).ObserveFault(f)
			}
			for _, i := range r.Perm(len(d.Sessions)) {
				part(d.Sessions[i].Host).ObserveSession(d.Sessions[i])
			}
			r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		} else {
			parts = make([]*Accumulators, 1+r.IntN(8))
			for i := range parts {
				parts[i] = NewAccumulators(d.ControllerNode)
			}
			for _, gi := range r.Perm(len(groups)) {
				fs := append([]extract.Fault(nil), groups[gi].Faults...)
				r.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
				p := parts[r.IntN(len(parts))]
				for _, f := range fs {
					p.ObserveFault(f)
				}
			}
			for _, i := range r.Perm(len(d.Sessions)) {
				parts[r.IntN(len(parts))].ObserveSession(d.Sessions[i])
			}
		}
		for _, p := range parts {
			if r.IntN(3) == 0 {
				_ = p.Finish()
			}
		}
		if r.IntN(2) == 0 {
			parts = append(parts, NewAccumulators(d.ControllerNode))
		}
		for len(parts) > 1 {
			i, j := r.IntN(len(parts)), r.IntN(len(parts)-1)
			if j >= i {
				j++
			}
			parts[i].Merge(parts[j])
			parts = append(parts[:j], parts[j+1:]...)
		}
		_ = parts[0].Finish()
		if got := figureBytes(parts[0], d); got != want {
			t.Fatalf("trial %d: merged figures differ from the in-order bundle:\n got %s\nwant %s", trial, got, want)
		}
	}
}

// TestHeadlineTopRawNodeDeterministicOnTies: equal per-node raw volumes
// must resolve to the lowest node index, not map iteration order.
func TestHeadlineTopRawNodeDeterministicOnTies(t *testing.T) {
	byNode := map[cluster.NodeID]int64{
		{Blade: 9, SoC: 9}:  500,
		{Blade: 3, SoC: 1}:  500,
		{Blade: 12, SoC: 2}: 500,
		{Blade: 1, SoC: 1}:  10,
	}
	want := cluster.NodeID{Blade: 3, SoC: 1}
	for trial := 0; trial < 30; trial++ {
		h := NewHeadlineAccum().Headline(1510, byNode, nil)
		if h.TopRawNode != want {
			t.Fatalf("trial %d: top raw node %v, want %v", trial, h.TopRawNode, want)
		}
		if h.TopNodeRawShare != 500.0/1510.0 {
			t.Fatalf("share %v", h.TopNodeRawShare)
		}
	}
}

// TestMultiBitTableDeterministicOnTies: rows sharing (bits, occurrences,
// corrupted) must order by expected value, stably across runs.
func TestMultiBitTableDeterministicOnTies(t *testing.T) {
	mk := func(expected, actual uint32) extract.Fault {
		return extract.Classify(extract.RawRun{
			Node: cluster.NodeID{Blade: 1, SoC: 1}, FirstAt: 100,
			Expected: expected, Actual: actual, Logs: 1,
		})
	}
	// Both rows: 2-bit corruption, same corrupted value, one occurrence.
	d := &Dataset{Faults: []extract.Fault{
		mk(0x00000005, 0x00000000), // bits 0,2
		mk(0x00000009, 0x00000000), // bits 0,3 — 2 bits as well? 0x9 = 1001: bits 0,3
	}}
	var first []MultiBitRow
	for trial := 0; trial < 30; trial++ {
		rows := MultiBitTable(d)
		if len(rows) != 2 {
			t.Fatalf("rows %d, want 2", len(rows))
		}
		if trial == 0 {
			first = rows
			if rows[0].Expected != 0x5 || rows[1].Expected != 0x9 {
				t.Fatalf("tie not broken by expected value: %+v", rows)
			}
			continue
		}
		if !reflect.DeepEqual(rows, first) {
			t.Fatalf("trial %d: row order unstable", trial)
		}
	}
}
