package main

import (
	"bytes"
	"context"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"unprotected/internal/analysis"
	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/core"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/faultstore"
	"unprotected/internal/logstore"
	"unprotected/internal/stream"
)

// probeReps is how many times each layer probe repeats; the probe
// reports the median.
const probeReps = 3

func probeIfTraced(ctx context.Context, p params, in *inputs, tr *tracer, r *result) error {
	if tr == nil {
		return nil
	}
	r.add(metric{Name: "bench.span_coverage_frac", Unit: "ratio", Value: tr.coverage(), Better: "higher", Kind: "layer"})
	return probeLayers(ctx, p, in, tr, r)
}

// probeLayers times each layer's public functions from outside, over the
// seed's inputs. Every traced run makes the same probes, so a layer's
// figure reads the same whichever workload carried it; the README maps
// each layer to the end-to-end metrics it moves. Probe spans have
// operation id 0.
func probeLayers(ctx context.Context, p params, in *inputs, tr *tracer, r *result) error {
	layer := func(name, unit string, v float64, n int, better string) {
		r.add(metric{Name: name, Unit: unit, Value: v, N: n, Better: better, Kind: "layer"})
	}
	// timed runs f probeReps times after a forced collection each, records
	// a span per run, and returns the median in seconds.
	timed := func(name string, f func() error) (float64, error) {
		var ds []time.Duration
		for range probeReps {
			runtime.GC()
			start := time.Now()
			if err := f(); err != nil {
				return 0, fmt.Errorf("probe %s: %w", name, err)
			}
			end := time.Now()
			tr.add(0, 0, name, start, end)
			ds = append(ds, end.Sub(start))
		}
		return median(ds), nil
	}
	// untilStats drains a source up to its stats prologue, which arrives
	// only after the source's worker pool has finished.
	untilStats := func(seq iter.Seq2[stream.Event, error]) error {
		for ev, err := range seq {
			if err != nil {
				return err
			}
			if ev.Kind == stream.KindStats {
				return nil
			}
		}
		return fmt.Errorf("stream ended without a stats prologue")
	}
	// produce times a source with its default worker pool and with one
	// worker; the speed-up's base is the one-worker figure.
	produce := func(layerName string, events func(workers int) iter.Seq2[stream.Event, error]) error {
		par, err := timed(layerName+".produce_s", func() error { return untilStats(events(0)) })
		if err != nil {
			return err
		}
		one, err := timed(layerName+".produce_s_w1", func() error { return untilStats(events(1)) })
		if err != nil {
			return err
		}
		layer(layerName+".produce_s", "s", par, probeReps, "lower")
		layer(layerName+".produce_s_w1", "s", one, probeReps, "lower")
		layer(layerName+".produce_speedup", "x", one/par, probeReps, "higher")
		return nil
	}

	if err := produce("campaign", func(w int) iter.Seq2[stream.Event, error] {
		cfg := p.config()
		cfg.Workers = w
		return campaign.Events(ctx, cfg)
	}); err != nil {
		return err
	}
	if err := produce("logstore", func(w int) iter.Seq2[stream.Event, error] {
		return logstore.Events(ctx, in.exportDir, w)
	}); err != nil {
		return err
	}
	if err := probeParse(in.exportDir, r); err != nil {
		return err
	}

	// Delivery and the accumulators over the captured per-node streams.
	d := in.study.Dataset
	faultsBy := make([][]extract.Fault, cluster.TotalNodes)
	for _, f := range d.Faults {
		faultsBy[f.Node.Index()] = append(faultsBy[f.Node.Index()], f)
	}
	sessionsBy := make([][]eventlog.Session, cluster.TotalNodes)
	for _, s := range d.Sessions {
		sessionsBy[s.Host.Index()] = append(sessionsBy[s.Host.Index()], s)
	}
	var fs [][]extract.Fault
	var ss [][]eventlog.Session
	for i := range faultsBy {
		if len(faultsBy[i]) > 0 {
			fs = append(fs, faultsBy[i])
		}
		if len(sessionsBy[i]) > 0 {
			ss = append(ss, sessionsBy[i])
		}
	}
	st := &stream.Stats{Faults: len(d.Faults), Sessions: len(d.Sessions), RawLogs: d.RawLogs, RawLogsByNode: d.RawLogsByNode}
	deliver, err := timed("stream.deliver_s", func() error {
		stream.Deliver(ctx, func(stream.Event, error) bool { return true }, st, fs, ss)
		return nil
	})
	if err != nil {
		return err
	}
	accum, err := timed("analysis.accumulators_s", func() error {
		acc := analysis.NewAccumulators(d.ControllerNode)
		for _, f := range d.Faults {
			acc.ObserveFault(f)
		}
		for _, s := range d.Sessions {
			acc.ObserveSession(s)
		}
		return acc.Finish()
	})
	if err != nil {
		return err
	}

	// The sink and the render from traced replays.
	var consume, render []time.Duration
	var reportBytes int
	for range probeReps {
		runtime.GC()
		sr, err := runStudy(ctx, tr, 0, 0, core.Logs(in.exportDir, core.WithController(p.controller())))
		if err != nil {
			return fmt.Errorf("probe replay: %w", err)
		}
		consume, render, reportBytes = append(consume, sr.consume), append(render, sr.render), sr.bytes
	}
	layer("stream.deliver_s", "s", deliver, probeReps, "lower")
	layer("core.sink_s", "s", median(consume)-deliver, probeReps, "lower")
	layer("analysis.accumulators_s", "s", accum, probeReps, "lower")
	layer("render.report_s", "s", median(render), probeReps, "lower")
	layer("render.report_bytes", "bytes", float64(reportBytes), probeReps, "lower")

	ioc := &ioCounters{}
	fsys := timingFS{ioc}
	if err := probeStore(ctx, p, in, fsys, timed, r); err != nil {
		return err
	}
	if err := probeMonitor(ctx, p, in, fsys, r); err != nil {
		return err
	}
	r.add(ioc.metrics()...)
	return nil
}

// probeParse times eventlog.ParseBytes and the §II-C collapse over the
// export held in memory, one file at a time.
func probeParse(exportDir string, r *result) error {
	files, err := logstore.ListNodeFiles(exportDir)
	if err != nil {
		return err
	}
	var parse, collapse time.Duration
	var size int64
	recs := make([]eventlog.Record, 0, 4096)
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		size += int64(len(data))
		recs = recs[:0]
		start := time.Now()
		for rest := data; len(rest) > 0; {
			line := rest
			if i := bytes.IndexByte(rest, '\n'); i >= 0 {
				line, rest = rest[:i], rest[i+1:]
			} else {
				rest = nil
			}
			if line = bytes.TrimSpace(line); len(line) == 0 {
				continue
			}
			rec, err := eventlog.ParseBytes(line)
			if err != nil {
				return fmt.Errorf("probe parse %s: %w", path, err)
			}
			recs = append(recs, rec)
		}
		parsed := time.Now()
		c := extract.NewCollapser()
		for _, rec := range recs {
			c.Observe(rec)
		}
		c.Close()
		parse += parsed.Sub(start)
		collapse += time.Since(parsed)
	}
	r.add(
		metric{Name: "eventlog.parse_s", Unit: "s", Value: parse.Seconds(), N: len(files), Better: "lower", Kind: "layer"},
		metric{Name: "eventlog.parse_mb_per_s", Unit: "MB/s", Value: float64(size) / 1e6 / parse.Seconds(), N: len(files), Better: "higher", Kind: "layer"},
		metric{Name: "extract.collapse_s", Unit: "s", Value: collapse.Seconds(), N: len(files), Better: "lower", Kind: "layer"},
	)
	return nil
}

// probeStore ingests and compacts the export through the timing FS, then
// times the store's decode (a full query up to its prologue) and counts
// what a one-node query opens and prunes.
func probeStore(ctx context.Context, p params, in *inputs, fsys timingFS, timed func(string, func() error) (float64, error), r *result) error {
	dir := filepath.Join(p.work, "probe-store")
	defer os.RemoveAll(dir)
	c0 := cpuTime()
	is, err := faultstore.Ingest(ctx, in.exportDir, dir, faultstore.WithIngestFS(fsys))
	if err != nil {
		return fmt.Errorf("probe ingest: %w", err)
	}
	c1 := cpuTime()
	if _, err := faultstore.Compact(dir, faultstore.WithCompactFS(fsys)); err != nil {
		return fmt.Errorf("probe compact: %w", err)
	}
	c2 := cpuTime()
	decode, err := timed("faultstore.decode_s", func() error {
		st, oerr := faultstore.Open(dir, faultstore.WithStoreFS(fsys))
		if oerr != nil {
			return oerr
		}
		for ev, qerr := range st.Events(ctx, faultstore.Query{}) {
			if qerr != nil || ev.Kind == stream.KindStats {
				return qerr
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	st, err := faultstore.Open(dir, faultstore.WithStoreFS(fsys))
	if err != nil {
		return err
	}
	node, err := cluster.ParseNodeID(p.controller())
	if err != nil {
		return err
	}
	for _, err := range st.Events(ctx, faultstore.Query{Nodes: []cluster.NodeID{node}}) {
		if err != nil {
			return fmt.Errorf("probe one-node query: %w", err)
		}
	}
	opened, pruned := st.SegmentsOpened(), st.SegmentsPruned()
	r.add(
		metric{Name: "faultstore.decode_s", Unit: "s", Value: decode, N: probeReps, Better: "lower", Kind: "layer"},
		metric{Name: "faultstore.segments_opened", Unit: "count", Value: float64(opened), Better: "lower", Kind: "layer"},
		metric{Name: "faultstore.pruned_frac", Unit: "ratio", Value: float64(pruned) / float64(max(opened+pruned, 1)), Better: "higher", Kind: "layer"},
		metric{Name: "faultstore.ingest_cpu_s", Unit: "s", Value: (c1 - c0).Seconds(), Better: "lower", Kind: "layer"},
		metric{Name: "faultstore.compact_cpu_s", Unit: "s", Value: (c2 - c1).Seconds(), Better: "lower", Kind: "layer"},
		metric{Name: "faultstore.bytes_per_log_byte", Unit: "ratio", Value: float64(is.Bytes) / float64(max(in.exportBytes, 1)), Better: "lower", Kind: "layer"},
	)
	return nil
}

// probeMonitor runs a short live session (p.probeRounds rounds on the
// live workload's schedule, monitor I/O through the timing FS) and a
// follow-only replay of the same schedule that folds records into
// per-node collapsers and accounting, the monitor's ingest without its
// rebuild. Rebuild time is round time minus follow time.
func probeMonitor(ctx context.Context, p params, in *inputs, fsys timingFS, r *result) error {
	dir := filepath.Join(p.work, "probe-live")
	defer os.RemoveAll(dir)
	lr, err := liveSession(ctx, p, in.exportDir, dir, liveConfig{
		minRounds: p.probeRounds, maxRounds: p.probeRounds,
		interval: p.interval, getEvery: p.getEvery, fsys: fsys,
	}, nil)
	if err != nil {
		return fmt.Errorf("probe monitor: %w", err)
	}
	r.check(lr.digest == lr.oneshot, "probe monitor: snapshot digest %s, one-shot replay %s", lr.digest, lr.oneshot)
	follow, err := followRounds(ctx, p, in.exportDir, filepath.Join(p.work, "probe-follow"))
	if err != nil {
		return fmt.Errorf("probe follow: %w", err)
	}
	roundP50 := quantile(lr.round.xs, 0.5)
	followP50 := quantile(follow.xs, 0.5)
	r.add(
		lr.round.pct("monitor.round_ms_p50", "ms", 0.5, "layer"),
		lr.round.pct("monitor.round_ms_p75", "ms", 0.75, "layer"),
		follow.pct("logstore.follow_round_ms_p50", "ms", 0.5, "layer"),
		metric{Name: "monitor.rebuild_ms_p50", Unit: "ms", Value: roundP50 - followP50, N: len(lr.round.xs), Better: "lower", Kind: "layer"},
		lr.wait.pct("monitor.round_wait_ms_p50", "ms", 0.5, "layer"),
		metric{Name: "monitor.study_json_bytes", Unit: "bytes", Value: float64(lr.jsonBytes), Better: "lower", Kind: "layer"},
		metric{Name: "bench.generator_late_ms_max", Unit: "ms", Value: lr.lateMax.Seconds() * 1e3, Better: "lower", Kind: "layer"},
	)
	return nil
}

// followRounds replays the live schedule through logstore.Follow alone:
// catch up on the backlog, then p.probeRounds rounds, each appending one
// held-back hour and released as soon as the previous round finished.
func followRounds(ctx context.Context, p params, exportDir, dir string) (*series, error) {
	defer os.RemoveAll(dir)
	chunks, err := stage(exportDir, dir, p.heldHours)
	if err != nil {
		return nil, err
	}
	rounds := min(p.probeRounds, len(chunks))
	tick := newStepTicker(rounds)
	bg := goBackground(ctx, func(ctx context.Context) error {
		type node struct {
			col  *extract.Collapser
			acct *eventlog.Accounting
		}
		nodes := map[cluster.NodeID]*node{}
		for ev, err := range logstore.Follow(ctx, dir, logstore.FollowWithTicker(tick.wait)) {
			if err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return err
			}
			switch ev.Kind {
			case stream.KindRecord:
				n := nodes[ev.Record.Host]
				if n == nil {
					n = &node{extract.NewCollapser(), eventlog.NewAccounting()}
					nodes[ev.Record.Host] = n
				}
				n.acct.Observe(ev.Record)
				n.col.Observe(ev.Record)
			case stream.KindReset:
				delete(nodes, ev.Record.Host)
			}
		}
		return nil
	})
	defer bg.stop()
	if _, err := tick.next(bg); err != nil {
		return nil, err
	}
	out := newSeries("ms")
	for k := range rounds {
		if err := appendHour(chunks[k]); err != nil {
			return nil, err
		}
		tick.release <- struct{}{}
		call, err := tick.next(bg)
		if err != nil {
			return nil, err
		}
		out.add(call.Sub(<-tick.starts))
	}
	return out, bg.stop()
}
