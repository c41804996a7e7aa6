package analysis

import (
	"testing"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

var (
	nodeA = cluster.NodeID{Blade: 2, SoC: 4}
	nodeB = cluster.NodeID{Blade: 10, SoC: 3}
)

func mkFault(node cluster.NodeID, at timebase.T, addr dram.Addr, exp, act uint32, temp float64) extract.Fault {
	return extract.Classify(extract.RawRun{
		Node: node, Addr: addr, FirstAt: at, LastAt: at,
		Logs: 1, Expected: exp, Actual: act, TempC: temp,
	})
}

// fixture builds a small, fully hand-checkable dataset: five errors on
// nodeA clustered on day 10 (one double-bit), one isolated 4-bit error on
// nodeB on day 20 without telemetry.
func fixture() *Dataset {
	day := timebase.T(86400)
	faults := []extract.Fault{
		mkFault(nodeA, 10*day+3600, 1, 0xFFFFFFFF, 0xFFFFFFFE, 31),
		mkFault(nodeA, 10*day+3600, 2, 0xFFFFFFFF, 0xFFFFFFFD, 31),
		mkFault(nodeA, 10*day+7200, 3, 0xFFFFFFFF, 0xFFFF7BFF, 33),
		mkFault(nodeA, 10*day+9900, 4, 0xFFFFFFFF, 0xFFFFFFFE, 35),
		mkFault(nodeA, 10*day+12000, 5, 0xFFFFFFFF, 0xFFFFFFFB, 32),
		mkFault(nodeB, 20*day+3600, 9, 0xFFFFFFFF, 0xF7FC7FFF, thermal.NoReading),
	}
	extract.SortFaults(faults)
	sessions := []eventlog.Session{
		{Host: nodeA, From: 0, To: 2 * 3600, AllocBytes: 3 << 30},
		{Host: nodeB, From: 9 * day, To: 9*day + 36000, AllocBytes: 2 << 30},
	}
	return &Dataset{
		Faults:        faults,
		Sessions:      sessions,
		RawLogs:       100,
		RawLogsByNode: map[cluster.NodeID]int64{nodeA: 90, nodeB: 10},
		Topo:          cluster.PaperTopology(),
	}
}

// accumulate folds d through the accumulator bundle the way Analyze does,
// d's controller node excluded from the regimes, and seals it.
func accumulate(d *Dataset) *Accumulators {
	a := NewAccumulators(d.ControllerNode)
	for _, f := range d.Faults {
		a.ObserveFault(f)
	}
	for _, s := range d.Sessions {
		a.ObserveSession(s)
	}
	_ = a.Finish() // never fails
	return a
}

func TestHeadline(t *testing.T) {
	d := fixture()
	h := accumulate(d).Headline.Headline(d.RawLogs, d.RawLogsByNode, d.Topo)
	if h.IndependentFaults != 6 || h.RawLogs != 100 {
		t.Fatalf("headline counts: %+v", h)
	}
	if h.TopRawNode != nodeA || h.TopNodeRawShare != 0.9 {
		t.Fatalf("top raw node: %v %v", h.TopRawNode, h.TopNodeRawShare)
	}
	if h.MultiBitFaults != 2 {
		t.Fatalf("multi-bit faults %d, want 2", h.MultiBitFaults)
	}
	if h.NodesWithFaults != 2 || h.NodesScanned != 923 {
		t.Fatalf("node counts: %+v", h)
	}
	// 2h + 10h of sessions.
	if float64(h.NodeHours) != 12 {
		t.Fatalf("node hours %v", h.NodeHours)
	}
	// All fixture flips are 1->0.
	if h.Ones2ZerosFraction() != 1 {
		t.Fatalf("flip fraction %v", h.Ones2ZerosFraction())
	}
}

func TestBitClass(t *testing.T) {
	for bits, want := range map[int]int{1: 1, 2: 2, 5: 5, 6: 6, 9: 6, 36: 6} {
		if got := BitClass(bits); got != want {
			t.Fatalf("BitClass(%d) = %d, want %d", bits, got, want)
		}
	}
}

func TestHeatmaps(t *testing.T) {
	d := fixture()
	hours := HoursHeatmap(d)
	st := GridStats(hours)
	if st.NonZero != 2 {
		t.Fatalf("hours nonzero cells %d", st.NonZero)
	}
	if st.Max != 10 {
		t.Fatalf("hours max %v, want 10 (nodeB session)", st.Max)
	}
	tbh := TBhHeatmap(d)
	if GridStats(tbh).NonZero != 2 {
		t.Fatal("tbh cells")
	}
	errs := ErrorsHeatmap(d)
	est := GridStats(errs)
	if est.NonZero != 2 || est.Max != 5 {
		t.Fatalf("errors grid: %+v", est)
	}
	// 63 monitored blades, 15 SoCs per row.
	if len(errs.Values) != 63 || len(errs.Values[0]) != 15 {
		t.Fatalf("grid shape %dx%d", len(errs.Values), len(errs.Values[0]))
	}
}

func TestHourOfDay(t *testing.T) {
	d := fixture()
	hod := accumulate(d).HourOfDay
	total := hod.Total()
	var sum float64
	for _, v := range total {
		sum += v
	}
	if sum != 6 {
		t.Fatalf("hour histogram total %v", sum)
	}
	multi := hod.MultiBit()
	var msum float64
	for _, v := range multi {
		msum += v
	}
	if msum != 2 {
		t.Fatalf("multi-bit hour total %v", msum)
	}
	// Chart renders without panicking and contains only non-empty series.
	chart := hod.Chart("fig5", false)
	if len(chart.Series) == 0 || len(chart.XLabels) != 24 {
		t.Fatal("chart shape")
	}
}

func TestDayNightRatioFlat(t *testing.T) {
	var flat [24]float64
	for i := range flat {
		flat[i] = 10
	}
	// Flat distribution: 11 day hours / 13 night hours.
	if r := DayNightRatio(flat); r < 0.84 || r > 0.85 {
		t.Fatalf("flat ratio %v, want 11/13", r)
	}
	var peaked [24]float64
	peaked[12] = 100
	if PeakHour(peaked) != 12 {
		t.Fatal("peak hour")
	}
}

func TestTemperature(t *testing.T) {
	d := fixture()
	temp := accumulate(d).Temperature
	if temp.NoReading != 1 {
		t.Fatalf("pre-telemetry count %d", temp.NoReading)
	}
	lo, hi := temp.ModalBand(1, 6)
	if lo < 28 || hi > 38 {
		t.Fatalf("modal band [%v, %v]", lo, hi)
	}
	if temp.CountAbove(60, 1, 6) != 0 {
		t.Fatal("no fixture errors above 60C")
	}
	if temp.CountAbove(30, 2, 6) != 1 {
		t.Fatalf("multi-bit above 30C: %v", temp.CountAbove(30, 2, 6))
	}
}

func TestDailySeries(t *testing.T) {
	d := fixture()
	a := accumulate(d)
	scanned := a.Daily.Scanned
	if len(scanned) != timebase.StudyDays {
		t.Fatal("daily length")
	}
	// Session 1: 2h × 3 GiB on day 0.
	want := 3.0 / 1024 * 2
	if diff := scanned[0] - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("day 0 scanned %v, want %v", scanned[0], want)
	}
	daily := a.Daily.Errors
	if daily[0][10] != 5 || daily[0][20] != 1 {
		t.Fatalf("daily errors: day10=%v day20=%v", daily[0][10], daily[0][20])
	}
	if daily[2][10] != 1 || daily[4][20] != 1 {
		t.Fatal("per-class daily errors")
	}
}

// TestDailyScannedAcrossDST pins how a session spanning a DST switch is
// split across local days: each day runs to the next local midnight, so a
// 1 TiB session covering the whole 23-hour spring-forward day credits it
// 23 TBh and the 25-hour fall-back day 25 TBh.
func TestDailyScannedAcrossDST(t *testing.T) {
	day := func(m time.Month, d int) int {
		return int(time.Date(2015, m, d, 0, 0, 0, 0, time.UTC).Sub(timebase.Epoch) / (24 * time.Hour))
	}
	utc := func(m time.Month, d, h int) timebase.T {
		return timebase.FromTime(time.Date(2015, m, d, h, 0, 0, 0, time.UTC))
	}
	for _, c := range []struct {
		name     string
		from, to timebase.T
		first    int
		want     []float64
	}{
		{"spring forward", utc(time.March, 28, 22), utc(time.March, 30, 2), day(time.March, 28), []float64{1, 23, 4}},
		{"fall back", utc(time.October, 24, 21), utc(time.October, 26, 2), day(time.October, 24), []float64{1, 25, 3}},
	} {
		a := NewAccumulators()
		a.ObserveSession(eventlog.Session{Host: nodeA, From: c.from, To: c.to, AllocBytes: 1 << 40})
		_ = a.Finish()
		if len(a.Daily.Scanned) != timebase.StudyDays {
			t.Fatalf("%s: %d days scanned, want %d", c.name, len(a.Daily.Scanned), timebase.StudyDays)
		}
		for d, got := range a.Daily.Scanned {
			want := 0.0
			if i := d - c.first; i >= 0 && i < len(c.want) {
				want = c.want[i]
			}
			if got != want {
				t.Errorf("%s: day %s scanned %v TBh, want %v", c.name, timebase.DayLabel(d), got, want)
			}
		}
	}
}

func TestTopNodes(t *testing.T) {
	d := fixture()
	top, rest := TopNodes(d, 1)
	if len(top) != 1 || top[0].Node != nodeA || top[0].Total != 5 {
		t.Fatalf("top: %+v", top)
	}
	if rest.Total != 1 {
		t.Fatalf("rest: %+v", rest.Total)
	}
	if top[0].Daily[10] != 5 {
		t.Fatal("top daily series")
	}
}

func TestRegimes(t *testing.T) {
	d := fixture()
	r := accumulate(d).Regimes.Finish()
	// Day 10 has 5 errors (>3): degraded. Day 20 has 1: normal.
	if !r.Degraded[10] || r.Degraded[20] {
		t.Fatal("regime classification")
	}
	if r.DegradedDays != 1 || r.NormalDays != timebase.StudyDays-1 {
		t.Fatalf("day counts: %+v", r)
	}
	if r.DegradedErrors != 5 || r.NormalErrors != 1 {
		t.Fatalf("error split: %+v", r)
	}
	if r.MTBFDegradedHours != 24.0/5 {
		t.Fatalf("degraded MTBF %v", r.MTBFDegradedHours)
	}
	// Excluding nodeA as the controller node empties day 10.
	d.ControllerNode = nodeA
	r = accumulate(d).Regimes.Finish()
	if r.DegradedDays != 0 || r.NormalErrors != 1 {
		t.Fatalf("exclusion: %+v", r)
	}
}

func TestMultiBitTableAndStats(t *testing.T) {
	d := fixture()
	rows := MultiBitTable(d)
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	// Ordered by bit count.
	if rows[0].Bits != 2 || rows[1].Bits != 4 {
		t.Fatalf("row order: %+v", rows)
	}
	total := 0
	for _, r := range rows {
		total += r.Occurrences
	}
	if total != 2 {
		t.Fatalf("occurrences %d", total)
	}
	st := accumulate(d).MultiBit.Stats()
	if st.TotalEvents != 2 || st.DoubleBitEvents != 1 || st.OverThreeBits != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MaxBits != 4 {
		t.Fatalf("max bits %d", st.MaxBits)
	}
	tbl := RenderMultiBitTable(rows)
	if len(tbl.Rows) != 2 {
		t.Fatal("rendered rows")
	}
}

func TestSimultaneityFigure(t *testing.T) {
	d := fixture()
	fig := accumulate(d).Simultaneity.Figure()
	// Per-word: 4 singles, 1 double, 1 quad.
	if fig.PerWord[1] != 4 || fig.PerWord[2] != 1 || fig.PerWord[4] != 1 {
		t.Fatalf("per word: %+v", fig.PerWord)
	}
	// Per-node: two 1-bit groups (the lone singles), two 2-bit groups (the
	// simultaneous single pair and the lone double), one 4-bit group.
	if fig.PerNode[1] != 2 || fig.PerNode[2] != 2 || fig.PerNode[4] != 1 {
		t.Fatalf("per node: %+v", fig.PerNode)
	}
	if c := fig.Chart(); len(c.Series) != 2 {
		t.Fatal("chart series")
	}
}

func TestIsolatedSDC(t *testing.T) {
	d := fixture()
	sdc := ComputeIsolatedSDC(d)
	if len(sdc.Events) != 1 || sdc.NodesInvolved != 1 {
		t.Fatalf("events: %+v", sdc)
	}
	ev := sdc.Events[0]
	if ev.NodeOtherErrors != 0 || ev.SimultaneousDetectable {
		t.Fatalf("isolation: %+v", ev)
	}
	if sdc.FullyIsolated != 1 || sdc.OnlyErrorOnNode != 1 || sdc.PreTelemetry != 1 {
		t.Fatalf("aggregates: %+v", sdc)
	}
}

func TestSpatialConcentration(t *testing.T) {
	d := fixture()
	errShare, nodeShare := SpatialConcentration(d, 1)
	if errShare != 5.0/6 {
		t.Fatalf("error share %v", errShare)
	}
	if nodeShare <= 0 || nodeShare > 0.01 {
		t.Fatalf("node share %v", nodeShare)
	}
}

func TestScanErrorCorrelation(t *testing.T) {
	d := fixture()
	pr, err := accumulate(d).Daily.Correlation()
	if err != nil {
		t.Fatal(err)
	}
	if pr.N != timebase.StudyDays {
		t.Fatalf("n = %d", pr.N)
	}
	if pr.R < -1 || pr.R > 1 {
		t.Fatalf("r = %v", pr.R)
	}
}

func TestFaultsExcluding(t *testing.T) {
	d := fixture()
	rest := d.FaultsExcluding(nodeA)
	if len(rest) != 1 || rest[0].Node != nodeB {
		t.Fatalf("exclusion: %+v", rest)
	}
	if len(d.FaultsExcluding()) != 6 {
		t.Fatal("no-op exclusion")
	}
}

func TestMonthlySeries(t *testing.T) {
	daily := make([]float64, timebase.StudyDays)
	daily[0] = 1  // Feb 2015
	daily[35] = 2 // Mar 2015
	labels, sums := MonthlySeries(daily)
	// Feb 2015 through Feb 2016 inclusive: exactly 13 calendar months.
	if len(labels) != 13 {
		t.Fatalf("months %d: %v", len(labels), labels)
	}
	if labels[0] != "2015-02" || sums[0] != 1 {
		t.Fatalf("first month: %v %v", labels[0], sums[0])
	}
	if labels[1] != "2015-03" || sums[1] != 2 {
		t.Fatalf("second month: %v %v", labels[1], sums[1])
	}
}
