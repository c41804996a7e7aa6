package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/core"
	"unprotected/internal/extract"
	"unprotected/internal/faultstore"
	"unprotected/internal/stream"
	"unprotected/internal/timebase"
)

// workloads lists the benchmark's workloads in the order they run. Why
// each exists is in README.md.
var workloads = []struct {
	name string
	run  func(ctx context.Context, p params, tr *tracer, r *result) error
}{
	{"simulate", runSimulate},
	{"replay", runReplay},
	{"store", runStore},
	{"live", runLive},
}

// Regression bounds of the end-to-end metrics: the share of the parent's
// median by which a metric may worsen before a change counts as a
// regression. On the shared 2-vCPU host the benchmark was written on,
// op_rel_p50 spread by up to 23% across ten runs (README.md), so it gets
// the widest bound allowed, which set-up time shares. The raw times
// printed beside them carry no bound: that host drifted by 20-30%
// between sets of runs minutes apart.
const (
	boundSetup = 0.25
	boundRel   = 0.25
	boundHeap  = 0.05
)

// result is everything one workload run reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Host      hostInfo          `json:"host"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`   // failed operations
	Problems  []string          `json:"problems,omitempty"` // failed correctness checks
	Digests   map[string]string `json:"digests"`
	Metrics   []metric          `json:"metrics"`
}

func (r *result) add(ms ...metric) { r.Metrics = append(r.Metrics, ms...) }

// check records a failed correctness check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// sideKind is the kind of the figures every run records beside the
// end-to-end set (runtime use, calibration): per-layer in a traced run,
// detail otherwise.
func (r *result) sideKind() string {
	if r.Traced {
		return "layer"
	}
	return "detail"
}

// opFailed records a failed operation.
func (r *result) opFailed(err error) {
	r.Failed++
	r.Errors = append(r.Errors, err.Error())
}

// opTimes holds the latencies of a workload's operation, split by whether
// the operation was traced (only in a traced run, on every other op),
// and the reference workload's times taken between operations.
type opTimes struct{ plain, traced, ref *series }

func newOpTimes() *opTimes {
	return &opTimes{plain: newSeries("ms"), traced: newSeries("ms"), ref: newSeries("ms")}
}

func (o *opTimes) add(traced bool, d time.Duration) {
	if traced {
		o.traced.add(d)
	} else {
		o.plain.add(d)
	}
}

// refNominal is the reference workload's time on a quiet host of the
// kind the benchmark was written on; setup_s is expressed against it.
const refNominal = 100 * time.Millisecond

// endToEnd adds the metrics every workload reports: set-up time, the
// workload operation's median time relative to the reference workload's
// median in the same run, and the heap retained by the final result;
// beside them, as detail, the raw times and CPU per operation.
//
// Both times are normalized by the reference workload, which only the
// host can slow down. setup_s is the median over set-ups of each set-up's
// seconds scaled by refNominal over the reference timed right after it:
// its set-up time on a host where the reference takes refNominal.
func (r *result) endToEnd(in *inputs, op *opTimes, use *runtimeUse, heapMB float64) {
	opMS, refMS := quantile(op.plain.xs, 0.5), quantile(op.ref.xs, 0.5)
	scaled := make([]time.Duration, len(in.setup))
	for i, d := range in.setup {
		scaled[i] = time.Duration(float64(d) * float64(refNominal) / float64(in.setupRef[i]))
	}
	r.add(
		metric{Name: "setup_s", Unit: "s", Value: median(scaled), N: len(in.setup), Better: "lower", Bound: boundSetup, Kind: "e2e"},
		metric{Name: "op_rel_p50", Unit: "x", Value: opMS / refMS, N: len(op.plain.xs), Better: "lower", Bound: boundRel, Kind: "e2e"},
		metric{Name: "setup_raw_s", Unit: "s", Value: median(in.setup), N: len(in.setup), Better: "lower", Kind: "detail"},
		metric{Name: "retained_heap_mb", Unit: "MB", Value: heapMB, N: 1, Better: "lower", Bound: boundHeap, Kind: "e2e"},
		op.plain.pct("op_ms_p50", "ms", 0.5, "detail"),
		op.ref.pct("bench.ref_ms_p50", "ms", 0.5, "detail"),
		metric{Name: "cpu_ms_per_op", Unit: "ms", Value: use.cpuMSPerOp(), N: use.ops, Better: "lower", Kind: "detail"},
		metric{Name: "failed_frac", Unit: "ratio", Value: float64(r.Failed) / float64(max(r.Attempted, 1)), N: r.Attempted, Better: "lower", Kind: "detail"},
	)
	r.add(use.metrics(r.sideKind())...)
	if len(op.traced.xs) > 0 {
		r.add(metric{Name: "bench.trace_overhead_frac", Unit: "ratio",
			Value: quantile(op.traced.xs, 0.5)/quantile(op.plain.xs, 0.5) - 1,
			N:     len(op.traced.xs), Better: "lower", Kind: "layer"})
	}
}

// closedLoop runs op back to back with one client until the budget is
// spent and at least p.minOps times, timing the reference workload after
// each. A forced collection runs before every operation and every
// reference, outside their timed regions, so each starts from the same
// heap state; the runtime figures cover the operations alone.
func closedLoop(p params, r *result, times *opTimes, op func(i int) error) *runtimeUse {
	use := &runtimeUse{}
	start := time.Now()
	for i := 0; i < p.minOps || time.Since(start) < p.budget; i++ {
		runtime.GC()
		before := sampleRuntime()
		err := op(i)
		use.add(before, sampleRuntime())
		use.ops++
		r.Attempted++
		if err != nil {
			r.opFailed(err)
		}
		runtime.GC()
		times.ref.add(reference(p.refRecords))
	}
	return use
}

// runSimulate: Analyze(Simulate) + FullReport, closed loop. Every
// iteration must render the set-up study's report byte for byte.
func runSimulate(ctx context.Context, p params, tr *tracer, r *result) error {
	in, err := generate(ctx, p, tr != nil, tr != nil)
	if err != nil {
		return err
	}
	r.Digests["simulate"] = in.digest
	times, studyS := newOpTimes(), newSeries("s")
	var last *core.Study
	use := closedLoop(p, r, times, func(i int) error {
		cfg := p.config()
		sr, err := runStudy(ctx, tr.every(i), i+1, 0, core.Simulate(cfg))
		if err != nil {
			return err
		}
		times.add(tr.every(i) != nil, sr.dur)
		studyS.add(sr.dur)
		r.check(sr.digest == in.digest, "simulate: iteration %d digest %s, set-up study %s", i, sr.digest, in.digest)
		last = sr.study
		return nil
	})
	heap := retainedHeapMB()
	runtime.KeepAlive(last)
	r.endToEnd(in, times, use, heap)
	r.add(studyS.pct("study_s_p50", "s", 0.5, "detail"), studyS.pct("study_s_p75", "s", 0.75, "detail"))
	return probeIfTraced(ctx, p, in, tr, r)
}

// runReplay: Analyze(Logs) + FullReport over the seed's export, closed
// loop. Every iteration must render the same report and recover the
// simulated fault and session counts.
func runReplay(ctx context.Context, p params, tr *tracer, r *result) error {
	in, err := generate(ctx, p, true, tr != nil)
	if err != nil {
		return err
	}
	ctl := p.controller()
	times, studyS := newOpTimes(), newSeries("s")
	var last *core.Study
	use := closedLoop(p, r, times, func(i int) error {
		sr, err := runStudy(ctx, tr.every(i), i+1, 0, core.Logs(in.exportDir, core.WithController(ctl)))
		if err != nil {
			return err
		}
		times.add(tr.every(i) != nil, sr.dur)
		studyS.add(sr.dur)
		if _, ok := r.Digests["replay"]; !ok {
			r.Digests["replay"] = sr.digest
		}
		r.check(sr.digest == r.Digests["replay"], "replay: iteration %d digest %s, first iteration %s", i, sr.digest, r.Digests["replay"])
		f, s := len(sr.study.Dataset.Faults), len(sr.study.Dataset.Sessions)
		r.check(f == in.faults && s == in.sessions, "replay: %d faults, %d sessions; simulated %d, %d", f, s, in.faults, in.sessions)
		last = sr.study
		return nil
	})
	heap := retainedHeapMB()
	runtime.KeepAlive(last)
	r.endToEnd(in, times, use, heap)
	r.add(studyS.pct("study_s_p50", "s", 0.5, "detail"), studyS.pct("study_s_p75", "s", 0.75, "detail"))
	return probeIfTraced(ctx, p, in, tr, r)
}

// storeQueries are the pruned queries of one store cycle and the fault
// counts the full dataset gives them.
type storeQueries struct {
	nodes      []string
	nodeFaults []int
	from, to   time.Time
	monthFault int
}

// pickQueries draws the cycle's four one-node queries and its one-month
// query from the seed, and counts the answers in the reference dataset.
func pickQueries(seed uint64, faults []extract.Fault, nodes []cluster.NodeID) storeQueries {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var q storeQueries
	for _, i := range rng.Perm(len(nodes))[:min(4, len(nodes))] {
		q.nodes = append(q.nodes, nodes[i].String())
		n := 0
		for _, f := range faults {
			if f.Node == nodes[i] {
				n++
			}
		}
		q.nodeFaults = append(q.nodeFaults, n)
	}
	q.from = timebase.Epoch.AddDate(0, rng.IntN(13), 0)
	q.to = q.from.AddDate(0, 1, 0)
	lo, hi := timebase.FromTime(q.from), timebase.FromTime(q.to)
	for _, f := range faults {
		if f.FirstAt >= lo && f.FirstAt < hi {
			q.monthFault++
		}
	}
	return q
}

// countFaults runs a pruned query without a dataset and counts the faults
// it delivers.
func countFaults(ctx context.Context, src stream.Source, opts ...core.Option) (int, error) {
	n := 0
	opts = append(opts, core.WithoutDataset(), core.WithObservers(stream.FuncObserver{Fault: func(extract.Fault) { n++ }}))
	_, err := core.Analyze(ctx, src, opts...)
	return n, err
}

// runStore: one cycle is Ingest (with fsync) into a fresh store, Compact,
// two full Analyze(Store) + FullReport, four one-node queries and one
// one-month query; closed loop over cycles. The full queries must render
// the replay's report, the ingest must keep every fault, a
// single-generation compaction must keep the count, and each pruned query
// must count what the full dataset filtered the same way holds.
func runStore(ctx context.Context, p params, tr *tracer, r *result) error {
	in, err := generate(ctx, p, true, tr != nil)
	if err != nil {
		return err
	}
	ctl := p.controller()
	ref, err := runStudy(ctx, nil, 0, 0, core.Logs(in.exportDir, core.WithController(ctl)))
	if err != nil {
		return fmt.Errorf("store: reference replay: %w", err)
	}
	r.Digests["replay"] = ref.digest
	var hosts []cluster.NodeID
	for _, s := range ref.study.Dataset.Sessions {
		hosts = append(hosts, s.Host)
	}
	slices.SortFunc(hosts, func(a, b cluster.NodeID) int { return a.Index() - b.Index() })
	q := pickQueries(p.seed, ref.study.Dataset.Faults, slices.Compact(hosts))
	refFaults := len(ref.study.Dataset.Faults)
	ref = studyRun{}

	times := newOpTimes()
	studyS, ingestS, compactS, prunedMS := newSeries("s"), newSeries("s"), newSeries("s"), newSeries("ms")
	var last *core.Study
	use := closedLoop(p, r, times, func(i int) error {
		dir := filepath.Join(p.work, fmt.Sprintf("store-%d", i))
		defer os.RemoveAll(dir)
		t := tr.every(i)
		cycle := t.begin(i+1, 0, "cycle")
		start := time.Now()
		is, err := faultstore.Ingest(ctx, in.exportDir, dir)
		if err != nil {
			return err
		}
		ingested := time.Now()
		t.add(i+1, cycle, "ingest", start, ingested)
		ingestS.add(ingested.Sub(start))
		r.check(is.Faults == refFaults, "store: ingest kept %d faults, replay has %d", is.Faults, refFaults)
		cs, err := faultstore.Compact(dir)
		if err != nil {
			return err
		}
		compacted := time.Now()
		t.add(i+1, cycle, "compact", ingested, compacted)
		compactS.add(compacted.Sub(ingested))
		r.check(cs.FaultsBefore == refFaults && cs.FaultsAfter == refFaults,
			"store: single-generation compact %d -> %d faults, want %d", cs.FaultsBefore, cs.FaultsAfter, refFaults)
		for range 2 {
			sr, err := runStudy(ctx, t, i+1, cycle, core.Store(dir, core.WithController(ctl)))
			if err != nil {
				return err
			}
			studyS.add(sr.dur)
			r.check(sr.digest == r.Digests["replay"], "store: full query digest %s, replay %s", sr.digest, r.Digests["replay"])
			r.Digests["store"] = sr.digest
			last = sr.study
		}
		query := func(want int, what string, opt core.Option) error {
			qs := time.Now()
			n, err := countFaults(ctx, core.Store(dir), opt)
			if err != nil {
				return err
			}
			t.add(i+1, cycle, "pruned_query", qs, time.Now())
			prunedMS.add(time.Since(qs))
			r.check(n == want, "store: %s query counted %d faults, full dataset has %d", what, n, want)
			return nil
		}
		for j, node := range q.nodes {
			if err := query(q.nodeFaults[j], "node "+node, core.WithNodes(node)); err != nil {
				return err
			}
		}
		if err := query(q.monthFault, "month "+q.from.Format("2006-01"), core.WithTimeRange(q.from, q.to)); err != nil {
			return err
		}
		t.end(cycle)
		times.add(t != nil, time.Since(start))
		return nil
	})
	heap := retainedHeapMB()
	runtime.KeepAlive(last)
	r.endToEnd(in, times, use, heap)
	r.add(
		studyS.pct("study_s_p50", "s", 0.5, "detail"),
		studyS.pct("study_s_p75", "s", 0.75, "detail"),
		ingestS.pct("ingest_s_p50", "s", 0.5, "detail"),
		compactS.pct("compact_s_p50", "s", 0.5, "detail"),
		prunedMS.pct("pruned_query_ms_p50", "ms", 0.5, "detail"),
		prunedMS.pct("pruned_query_ms_p90", "ms", 0.9, "detail"),
	)
	return probeIfTraced(ctx, p, in, tr, r)
}
