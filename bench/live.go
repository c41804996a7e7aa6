package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"unprotected/internal/core"
	"unprotected/internal/eventlog"
	"unprotected/internal/iofault"
	"unprotected/internal/logstore"
	"unprotected/internal/monitor"
	"unprotected/internal/timebase"
)

// appendChunk is what one node file gains in one held-back hour.
type appendChunk struct {
	path string
	data []byte
}

// lineStarts returns the byte offset of every line in data.
func lineStarts(data []byte) []int {
	starts := []int{}
	for i := 0; i < len(data); {
		starts = append(starts, i)
		j := bytes.IndexByte(data[i:], '\n')
		if j < 0 {
			break
		}
		i += j + 1
	}
	return starts
}

// lineTime parses the timestamp of the line starting at off.
func lineTime(data []byte, off int) (timebase.T, error) {
	line := data[off:]
	if j := bytes.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	rec, err := eventlog.ParseBytes(bytes.TrimSpace(line))
	return rec.At, err
}

// stage writes the export's backlog — every line older than the last
// hours hours of the study — into dir, and returns the held-back lines
// grouped by the hour they belong to. Export files are time-ordered, so
// each hour is one contiguous byte range per file.
func stage(exportDir, dir string, hours int) ([][]appendChunk, error) {
	files, err := logstore.ListNodeFiles(exportDir)
	if err != nil {
		return nil, err
	}
	var end timebase.T
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if starts := lineStarts(data); len(starts) > 0 {
			at, err := lineTime(data, starts[len(starts)-1])
			if err != nil {
				return nil, fmt.Errorf("stage %s: %w", path, err)
			}
			end = max(end, at)
		}
	}
	// bounds[k] opens held-back hour k; the last hour ends after the
	// export's final line.
	bounds := make([]timebase.T, hours)
	for k := range bounds {
		bounds[k] = end + 1 - timebase.T((hours-k)*3600)
	}
	chunks := make([][]appendChunk, hours)
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(exportDir, path)
		if err != nil {
			return nil, err
		}
		dst := filepath.Join(dir, rel)
		starts := lineStarts(data)
		var perr error
		offs := make([]int, hours+1)
		for k, b := range bounds {
			i := sort.Search(len(starts), func(i int) bool {
				at, err := lineTime(data, starts[i])
				if err != nil && perr == nil {
					perr = fmt.Errorf("stage %s: %w", path, err)
				}
				return at >= b
			})
			offs[k] = len(data)
			if i < len(starts) {
				offs[k] = starts[i]
			}
		}
		offs[hours] = len(data)
		if perr != nil {
			return nil, perr
		}
		if offs[0] > 0 {
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				return nil, err
			}
			if err := os.WriteFile(dst, data[:offs[0]], 0o644); err != nil {
				return nil, err
			}
		}
		for k := range hours {
			if offs[k+1] > offs[k] {
				chunks[k] = append(chunks[k], appendChunk{dst, data[offs[k]:offs[k+1]]})
			}
		}
	}
	return chunks, nil
}

// appendHour appends one held-back hour to the live directory.
func appendHour(chunks []appendChunk) error {
	for _, c := range chunks {
		if err := os.MkdirAll(filepath.Dir(c.path), 0o755); err != nil {
			return err
		}
		f, err := os.OpenFile(c.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		_, werr := f.Write(c.data)
		if err := errors.Join(werr, f.Close()); err != nil {
			return err
		}
	}
	return nil
}

// sleepUntil waits for t or for ctx to end.
func sleepUntil(ctx context.Context, t time.Time) error {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stepTicker is the follow ticker the benchmark injects and steps by hand.
// The follower calls wait only after the round it just polled has been
// consumed — for a monitor, after the round's snapshot is published — so
// each call timestamps a round's completion; the call then blocks until
// the benchmark releases the next round.
type stepTicker struct {
	calls   chan time.Time // one per completed round
	starts  chan time.Time // one per released round, when the follower resumed
	release chan struct{}
}

// newStepTicker sizes every channel for rounds releases plus the initial
// poll, so the follower never blocks on the benchmark.
func newStepTicker(rounds int) *stepTicker {
	return &stepTicker{
		calls:   make(chan time.Time, rounds+1),
		starts:  make(chan time.Time, rounds+1),
		release: make(chan struct{}, rounds+1),
	}
}

func (t *stepTicker) wait(ctx context.Context) bool {
	t.calls <- time.Now()
	select {
	case <-t.release:
		t.starts <- time.Now()
		return true
	case <-ctx.Done():
		return false
	}
}

// background runs one consumer goroutine (a monitor, a follower) until
// stop cancels it and waits for it to return.
type background struct {
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

func goBackground(ctx context.Context, run func(ctx context.Context) error) *background {
	ctx, cancel := context.WithCancel(ctx)
	b := &background{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(b.done)
		b.err = run(ctx)
	}()
	return b
}

func (b *background) stop() error {
	b.cancel()
	<-b.done
	return b.err
}

// next waits for the follower's next completed round.
func (t *stepTicker) next(b *background) (time.Time, error) {
	select {
	case at := <-t.calls:
		return at, nil
	case <-b.done:
		return time.Time{}, fmt.Errorf("follower stopped early: %v", b.err)
	}
}

// liveConfig sizes one live session.
type liveConfig struct {
	budget    time.Duration // stop scheduling rounds past this (0: run maxRounds)
	minRounds int
	maxRounds int
	interval  time.Duration
	getEvery  time.Duration // /study GET period; 0 runs no client
	fsys      iofault.FS    // the monitor's I/O seam; nil keeps the OS
}

// liveRun is what a live session measured.
type liveRun struct {
	catchup   time.Duration
	lag       *opTimes // round due → snapshot published
	round     *series  // ticker release → published
	wait      *series  // lag minus round: time the round queued
	get       *series  // /study GET due → body read
	gets      int
	getFailed []error
	jsonBytes int
	lateMax   time.Duration // how late the generator ran, rounds and GETs
	rounds    int
	use       runtimeUse // the rounds phase
	heapMB    float64    // retained with the monitor reachable
	digest    string     // the monitor's final snapshot
	oneshot   string     // a one-shot Analyze(Logs) of the final directory
}

// getClient is the open-loop /study reader: one keep-alive connection, a
// GET due every `every` from start, each timed from its due time.
type getClient struct {
	lat     *series
	n       int
	failed  []error
	bytes   int
	lateMax time.Duration
}

func (g *getClient) run(client *http.Client, url string, start time.Time, every time.Duration, stop <-chan struct{}) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * every)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		g.lateMax = max(g.lateMax, time.Since(due))
		g.n++
		resp, err := client.Get(url)
		if err != nil {
			g.failed = append(g.failed, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /study: %s", resp.Status)
		}
		if err != nil {
			g.failed = append(g.failed, err)
			continue
		}
		g.lat.add(time.Since(due))
		g.bytes = len(body)
	}
}

// liveSession stages the export with p.heldHours held back, starts a
// monitor over the backlog with an injected ticker, lets it catch up,
// then appends one held-back hour per round on an open-loop schedule
// (round k is due k intervals after catch-up) while a client reads
// /study. Round completion is observed from outside: the follower calls
// the ticker only after the monitor has published that round's snapshot.
// When the rounds end, the remaining hours are appended in one last round
// so the directory — and the monitor at quiescence — holds the whole
// export.
func liveSession(ctx context.Context, p params, exportDir, dir string, cfg liveConfig, tr *tracer) (*liveRun, error) {
	chunks, err := stage(exportDir, dir, p.heldHours)
	if err != nil {
		return nil, err
	}
	// The rounds plus the final one that appends the rest.
	tick := newStepTicker(len(chunks) + 1)
	opts := []monitor.Option{monitor.WithController(p.controller()), monitor.WithTicker(tick.wait)}
	if cfg.fsys != nil {
		opts = append(opts, monitor.WithFS(cfg.fsys))
	}
	mon, err := monitor.New(dir, opts...)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	bg := goBackground(ctx, mon.Run)
	defer bg.stop()

	lr := &liveRun{lag: newOpTimes(), round: newSeries("ms"), wait: newSeries("ms")}
	c0, err := tick.next(bg)
	if err != nil {
		return nil, err
	}
	lr.catchup = c0.Sub(t0)
	tr.add(0, 0, "catchup", t0, c0)

	gc := &getClient{lat: newSeries("ms")}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if cfg.getEvery > 0 {
		srv := httptest.NewServer(mon.Handler())
		defer srv.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			gc.run(srv.Client(), srv.URL+"/study", c0, cfg.getEvery, stop)
		}()
	}
	stopGets := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopGets()

	// The runtime figures cover the rounds phase minus the reference runs.
	seg := sampleRuntime()
	var dues []time.Time
	k := 0
	for ; k < len(chunks) && k < cfg.maxRounds; k++ {
		due := c0.Add(time.Duration(k+1) * cfg.interval)
		if k >= cfg.minRounds && cfg.budget > 0 && due.Sub(t0) > cfg.budget {
			break
		}
		// The reference workload runs in the idle stretch before the round
		// is due, when the previous round has normally finished. No
		// collection is forced here: the monitor collects as it would in
		// production.
		if err := sleepUntil(ctx, due.Add(-cfg.interval/4)); err != nil {
			return nil, err
		}
		lr.use.add(seg, sampleRuntime())
		lr.lag.ref.add(reference(p.refRecords))
		seg = sampleRuntime()
		if err := sleepUntil(ctx, due); err != nil {
			return nil, err
		}
		lr.lateMax = max(lr.lateMax, time.Since(due))
		if err := appendHour(chunks[k]); err != nil {
			return nil, err
		}
		tick.release <- struct{}{}
		dues = append(dues, due)
	}
	for i, due := range dues {
		call, err := tick.next(bg)
		if err != nil {
			return nil, err
		}
		start := <-tick.starts
		t := tr.every(i)
		lag := t.add(i+1, 0, "publish_lag", due, call)
		t.add(i+1, lag, "round", start, call)
		lr.lag.add(t != nil, call.Sub(due))
		lr.round.add(call.Sub(start))
		lr.wait.add(call.Sub(due) - call.Sub(start))
	}
	lr.rounds = len(dues)
	lr.use.add(seg, sampleRuntime())
	lr.use.ops = lr.rounds

	// The last round takes every remaining hour, leaving the directory
	// equal to the export.
	for _, c := range chunks[k:] {
		if err := appendHour(c); err != nil {
			return nil, err
		}
	}
	tick.release <- struct{}{}
	if _, err := tick.next(bg); err != nil {
		return nil, err
	}
	<-tick.starts
	stopGets()
	lr.get, lr.gets, lr.getFailed, lr.jsonBytes = gc.lat, gc.n, gc.failed, gc.bytes
	lr.lateMax = max(lr.lateMax, gc.lateMax)

	snap := mon.Snapshot()
	lr.digest, _ = digest(snap.Study)
	lr.heapMB = retainedHeapMB()
	runtime.KeepAlive(mon)
	if err := bg.stop(); err != nil {
		return nil, err
	}
	one, err := runStudy(ctx, nil, 0, 0, core.Logs(dir, core.WithController(p.controller())))
	if err != nil {
		return nil, err
	}
	lr.oneshot = one.digest
	return lr, nil
}

// runLive: monitord's serving path, open loop. The monitor catches up on
// the backlog, then one hour of fleet logs is appended and the ticker
// released every interval, while a keep-alive client GETs /study on its
// own schedule. The monitor's final snapshot must render the report a
// one-shot replay of the final directory renders.
func runLive(ctx context.Context, p params, tr *tracer, r *result) error {
	in, err := generate(ctx, p, true, tr != nil)
	if err != nil {
		return err
	}
	lr, err := liveSession(ctx, p, in.exportDir, filepath.Join(p.work, "live"), liveConfig{
		budget: p.budget, minRounds: p.minOps, maxRounds: p.heldHours,
		interval: p.interval, getEvery: p.getEvery,
	}, tr)
	if err != nil {
		return err
	}
	r.Attempted += lr.rounds + lr.gets
	for _, err := range lr.getFailed {
		r.opFailed(err)
	}
	r.Digests["monitor"], r.Digests["oneshot"] = lr.digest, lr.oneshot
	r.check(lr.digest == lr.oneshot, "live: monitor snapshot digest %s, one-shot replay %s", lr.digest, lr.oneshot)
	r.endToEnd(in, lr.lag, &lr.use, lr.heapMB)
	r.add(
		metric{Name: "catchup_s", Unit: "s", Value: lr.catchup.Seconds(), N: 1, Better: "lower", Kind: "detail"},
		lr.lag.plain.pct("publish_lag_ms_p50", "ms", 0.5, "detail"),
		lr.lag.plain.pct("publish_lag_ms_p75", "ms", 0.75, "detail"),
		lr.get.pct("study_get_ms_p50", "ms", 0.5, "detail"),
		lr.get.pct("study_get_ms_p98", "ms", 0.98, "detail"),
	)
	if tr == nil {
		// A traced run reports the probe session's figure instead.
		r.add(metric{Name: "bench.generator_late_ms_max", Unit: "ms", Value: lr.lateMax.Seconds() * 1e3, Better: "lower", Kind: "detail"})
	}
	return probeIfTraced(ctx, p, in, tr, r)
}
