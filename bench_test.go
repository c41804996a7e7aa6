// Benchmarks regenerating the paper's tables and figures over a shared
// full-scale campaign. BenchmarkAccumulators times the one pass that
// computes every streamed figure (the headline, Figs 1–2, 4–11 and 13);
// one bench each times the node grids (Figs 1–3), the dataset-derived
// artifacts (Fig 12, Tables I and II) and the full report; the Benchmark*Substrate group
// measures the hot building blocks (scanner pass, extraction, ECC decode,
// strike sampling, campaign itself).
//
// Run: go test -bench=. -benchmem
package unprotected_test

import (
	"context"
	"io"
	"sync"
	"testing"

	"unprotected"
	"unprotected/internal/analysis"
	"unprotected/internal/checkpoint"
	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/ecc"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/pageretire"
	"unprotected/internal/quarantine"
	"unprotected/internal/radiation"
	"unprotected/internal/rng"
	"unprotected/internal/scanner"
	"unprotected/internal/solar"
	"unprotected/internal/stream"
	"unprotected/internal/timebase"
)

var (
	benchOnce  sync.Once
	benchStudy *unprotected.Study
)

// study runs the calibrated 13-month campaign once per bench binary.
func study(b *testing.B) *unprotected.Study {
	b.Helper()
	benchOnce.Do(func() { benchStudy = unprotected.RunPaperStudy(42) })
	return benchStudy
}

// BenchmarkAccumulators folds the seed-42 study's faults and sessions
// through a fresh figure-accumulator bundle and seals it: the work Analyze
// does per study for the headline, Figs 1–2, 4–11 and 13.
func BenchmarkAccumulators(b *testing.B) {
	d := study(b).Dataset
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := analysis.NewAccumulators(d.ControllerNode)
		for _, f := range d.Faults {
			a.ObserveFault(f)
		}
		for _, s := range d.Sessions {
			a.ObserveSession(s)
		}
		if err := a.Finish(); err != nil {
			b.Fatal(err)
		}
		if a.Simultaneity.Stats().FaultsInGroups == 0 {
			b.Fatal("no simultaneity")
		}
	}
}

func BenchmarkFig01Hours(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.GridStats(analysis.HoursHeatmap(s.Figures.Headline, s.Dataset.Topo)).NonZero == 0 {
			b.Fatal("empty grid")
		}
	}
}

func BenchmarkFig02TBh(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.GridStats(analysis.TBhHeatmap(s.Figures.Headline, s.Dataset.Topo)).NonZero == 0 {
			b.Fatal("empty grid")
		}
	}
}

func BenchmarkFig03Errors(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.GridStats(analysis.ErrorsHeatmap(s.Dataset)).NonZero == 0 {
			b.Fatal("empty grid")
		}
	}
}

func BenchmarkTab1MultiBit(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.MultiBitTable(s.Dataset)
		if len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig12TopNodes(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, _ := analysis.TopNodes(s.Dataset, 3)
		if len(top) != 3 {
			b.Fatal("top nodes")
		}
	}
}

func BenchmarkTab2Quarantine(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := quarantine.Sweep(s.Dataset.Faults, quarantine.PaperPeriods, s.ExcludedNodes()...)
		if len(res) != len(quarantine.PaperPeriods) {
			b.Fatal("sweep")
		}
	}
}

func BenchmarkIsolatedSDC(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sdc := analysis.ComputeIsolatedSDC(s.Dataset)
		if len(sdc.Events) != 7 {
			b.Fatalf("isolated events %d", len(sdc.Events))
		}
	}
}

func BenchmarkEccAudit(b *testing.B) {
	s := study(b)
	pairs := make([][2]uint32, 0, len(s.Dataset.Faults))
	for _, f := range s.Dataset.Faults {
		pairs = append(pairs, [2]uint32{f.Expected, f.Expected ^ f.Actual})
	}
	sec := ecc.SECDED32{C: ecc.NewSECDED3932()}
	ck := ecc.NewChipkill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ecc.RunAudit(sec, pairs).Total == 0 || ecc.RunAudit(ck, pairs).Total == 0 {
			b.Fatal("audit")
		}
	}
}

func BenchmarkPageRetire(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := pageretire.Simulate(s.Dataset.Faults, pageretire.Policy{Threshold: 3})
		if res.Errors == 0 {
			b.Fatal("retire")
		}
	}
}

func BenchmarkCheckpointAdapt(b *testing.B) {
	s := study(b)
	reg := s.RegimesFigure()
	var failureHours []float64
	for _, f := range s.Dataset.FaultsExcluding(s.ExcludedNodes()...) {
		failureHours = append(failureHours, float64(f.FirstAt)/3600)
	}
	const cost = 0.1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := checkpoint.AdaptivePlan(reg.Degraded, cost, reg.MTBFNormalHours, reg.MTBFDegradedHours)
		out := checkpoint.Replay(plan, failureHours, cost)
		if out.Failures == 0 {
			b.Fatal("no failures replayed")
		}
	}
}

func BenchmarkBurnInEscapes(b *testing.B) {
	pop := dram.DefaultWeakPopulation()
	screen := dram.DefaultBurnIn()
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dram.SimulateEscapes(pop, screen, 1000, r)
	}
}

func BenchmarkFullReport(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FullReport(io.Discard, unprotected.ReportOptions{Charts: true, Heatmaps: true})
	}
}

// --- Substrate benchmarks ---

func BenchmarkSubstrateCampaign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := unprotected.RunPaperStudy(uint64(i + 1))
		if len(st.Dataset.Faults) == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkAnalyzeIterator runs the same full-scale campaign as
// BenchmarkSubstrateCampaign but consumes it through the public Events
// iterator — what an external consumer ranges over; Analyze assembles a
// built-in source from its parts instead — with a constant-memory
// counting consumer, so the dataset is never materialized. ~56k faults
// plus ~1M sessions flow per op; CI's alloc gate holds its allocs/op to
// the committed baseline, which proves the delivery stack adds no
// per-event allocations (kway.MergeBlocks' zero-alloc gate covers the
// merge itself).
func BenchmarkAnalyzeIterator(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var faults, sessions int
		var stats unprotected.SourceStats
		for ev, err := range unprotected.Simulate(unprotected.DefaultConfig(uint64(i + 1))).Events(context.Background()) {
			if err != nil {
				b.Fatal(err)
			}
			switch ev.Kind {
			case unprotected.EventStats:
				stats = *ev.Stats
			case unprotected.EventFault:
				faults++
			case unprotected.EventSession:
				sessions++
			}
		}
		if faults == 0 || faults != stats.Faults || sessions != stats.Sessions {
			b.Fatal("iterator delivery disagrees with stats")
		}
	}
}

// BenchmarkSubstrateMerge measures Deliver alone — its two kway.Each
// walks and the Event each element is wrapped in — on the seed-42
// study's dataset, split per node into 26 fault and 923 session streams
// outside the timer, delivered into a consumer that does nothing (~642k
// events per op). Only the Events iterators run this path; Analyze and
// faultstore.Ingest walk their parts typed.
func BenchmarkSubstrateMerge(b *testing.B) {
	d := study(b).Dataset
	faultsBy := make([][]extract.Fault, cluster.TotalNodes)
	for _, f := range d.Faults {
		faultsBy[f.Node.Index()] = append(faultsBy[f.Node.Index()], f)
	}
	sessionsBy := make([][]eventlog.Session, cluster.TotalNodes)
	for _, s := range d.Sessions {
		sessionsBy[s.Host.Index()] = append(sessionsBy[s.Host.Index()], s)
	}
	var faults [][]extract.Fault
	var sessions [][]eventlog.Session
	for i := range faultsBy {
		if len(faultsBy[i]) > 0 {
			faults = append(faults, faultsBy[i])
		}
		if len(sessionsBy[i]) > 0 {
			sessions = append(sessions, sessionsBy[i])
		}
	}
	st := &stream.Stats{Faults: len(d.Faults), Sessions: len(d.Sessions)}
	ctx := context.Background()
	yield := func(stream.Event, error) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Deliver(ctx, yield, st, faults, sessions)
	}
}

// BenchmarkSubstrateScannerPass measures one verify+rewrite pass over a
// clean 4 MiB device. Pre-PR (word-at-a-time Read/compare/Write loop):
// ~1.56 ms/op ≈ 2.7 GB/s on the reference container; the block-compare
// FindMismatch/FillRange path must stay ≥2× that.
func BenchmarkSubstrateScannerPass(b *testing.B) {
	host := cluster.NodeID{Blade: 1, SoC: 2}
	dev := dram.NewDevice(uint64(host.Index()), 1<<20, nil) // 4 MiB
	sink := func(eventlog.Record) {}
	s := scanner.New(host, dev, scanner.FlipMode, sink, rng.New(1))
	b.SetBytes(int64(dev.Len()) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(0, 1, nil)
	}
}

// BenchmarkSubstrateParse measures the log-ingest fast path on a fully
// loaded pre-collapsed ERROR line — the record shape that dominates
// exported campaign logs. Pre-PR Parse (strings.Fields + time.Parse):
// ~1600 ns/op, 248 B/op, 7 allocs/op on the reference container; ParseBytes
// must run ≥3× faster with zero steady-state allocations
// (TestParseBytesZeroAlloc is the hard gate).
func BenchmarkSubstrateParse(b *testing.B) {
	line := []byte("ERROR ts=2015-06-14T03:12:45Z host=02-04 vaddr=0x7f2a00001234 actual=0xfffffffe expected=0xffffffff temp=33.517383129784076 ppage=0x1a2b3c last=2015-06-14T03:14:45Z logs=12")
	b.ReportAllocs()
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		rec, err := eventlog.ParseBytes(line)
		if err != nil || rec.Kind != eventlog.KindError {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrateRecordAppend is the exporter's mirror image: rendering
// the same record shape into a reused buffer (the Writer's steady state)
// must not allocate.
func BenchmarkSubstrateRecordAppend(b *testing.B) {
	rec := eventlog.Record{
		Kind: eventlog.KindError, At: 11480000, Host: cluster.NodeID{Blade: 2, SoC: 4},
		VAddr: 0x7f2a00001234, Actual: 0xfffffffe, Expected: 0xffffffff,
		TempC: 33.517383129784076, PhysPage: 0x1a2b3c, LastAt: 11480120, Logs: 12,
	}
	buf := rec.AppendText(make([]byte, 0, 256))
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = rec.AppendText(buf[:0])
	}
}

func BenchmarkSubstrateExtraction(b *testing.B) {
	// One million ERROR records through the streaming collapser.
	recs := make([]eventlog.Record, 0, 1<<20)
	host := cluster.NodeID{Blade: 2, SoC: 4}
	r := rng.New(7)
	at := timebase.T(0)
	for len(recs) < cap(recs) {
		at += timebase.T(r.IntN(20))
		recs = append(recs, eventlog.Record{
			Kind: eventlog.KindError, At: at, Host: host,
			VAddr: dram.VirtAddr(dram.Addr(r.IntN(4096))), Expected: 0xFFFFFFFF,
			Actual: 0xFFFFFFFE,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := extract.NewCollapser()
		for _, rec := range recs {
			c.Observe(rec)
		}
		runs, raw := c.Close()
		if raw != int64(len(recs)) || len(runs) == 0 {
			b.Fatal("extraction")
		}
	}
}

func BenchmarkSubstrateSECDEDDecode(b *testing.B) {
	c := ecc.NewSECDED3932()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Classify(uint64(i)&0xFFFFFFFF, uint64(i%37)) == ecc.OK && i%37 != 0 {
			b.Fatal("impossible outcome")
		}
	}
}

func BenchmarkSubstrateChipkillDecode(b *testing.B) {
	c := ecc.NewChipkill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify32(uint32(i), uint32(i%4096))
	}
}

func BenchmarkSubstrateStrikeSampling(b *testing.B) {
	flux := radiation.NewFlux(solar.Barcelona)
	gen := radiation.NewGenerator(flux, 0.001)
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Window(0, timebase.T(30*86400), r)
	}
}

func BenchmarkSubstrateSolarPosition(b *testing.B) {
	at := timebase.Epoch
	for i := 0; i < b.N; i++ {
		solar.PositionAt(solar.Barcelona, at)
	}
}

// localTimeSink keeps BenchmarkSubstrateLocalTime's results live.
var localTimeSink int64

// BenchmarkSubstrateLocalTime measures the local-time accessors under every
// per-window and per-element lookup: the daily accumulator's Day +
// SecondsIntoLocalDay pair, the HourOfDay of the thermal model and the
// hour-of-day accumulator, and the scheduler's Month. Each walks the study
// window at a prime stride, so the samples cover every hour of day under
// both CET and CEST.
func BenchmarkSubstrateLocalTime(b *testing.B) {
	const stride = 7919
	end := timebase.T(timebase.StudySeconds)
	for _, c := range []struct {
		name string
		fn   func(timebase.T) int64
	}{
		{"DaySeconds", func(at timebase.T) int64 { return int64(at.Day()) + at.SecondsIntoLocalDay() }},
		{"HourOfDay", func(at timebase.T) int64 { return int64(at.HourOfDay()) }},
		{"Month", func(at timebase.T) int64 { return int64(at.Month()) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var at timebase.T
			var sum int64
			for i := 0; i < b.N; i++ {
				sum += c.fn(at)
				if at += stride; at >= end {
					at -= end
				}
			}
			localTimeSink = sum
		})
	}
}
