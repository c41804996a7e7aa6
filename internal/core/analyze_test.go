package core

import (
	"bytes"
	"context"
	"errors"
	"iter"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/logstore"
	"unprotected/internal/stream"
)

// TestAnalyzeLogsMatchesStudyFromLogs: every spelling of a log-replay
// study — options on Analyze or on the source, explicit or default worker
// counts — must render a report byte-identical to the reference replay.
func TestAnalyzeLogsMatchesStudyFromLogs(t *testing.T) {
	sessions, faults, controller := replayFixture()
	dir := t.TempDir()
	if err := logstore.Export(sessions, faults, dir); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	logStudy(t, dir, controller, 3).FullReport(&want, ReportOptions{Charts: true, Heatmaps: true})

	for _, opts := range [][]Option{
		{WithController(controller), WithWorkers(3)},
		{WithController(controller)},
	} {
		study, err := Analyze(context.Background(), Logs(dir), opts...)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		study.FullReport(&got, ReportOptions{Charts: true, Heatmaps: true})
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Analyze(Logs) report diverges from the reference replay (opts %d)", len(opts))
		}
	}

	// Options on the source itself are the same API.
	study, err := Analyze(context.Background(), Logs(dir, WithController(controller), WithWorkers(2)))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	study.FullReport(&got, ReportOptions{Charts: true, Heatmaps: true})
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("Analyze(Logs(WithController)) report diverges from the reference replay")
	}
}

// TestAnalyzeSimulateMatchesRunStudy: RunPaperStudy and Analyze(Simulate)
// over the same seed render byte-identical reports, and a simulation
// study carries its campaign configuration, with or without a dataset.
func TestAnalyzeSimulateMatchesRunStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	ref := RunPaperStudy(8)
	var want bytes.Buffer
	ref.FullReport(&want, ReportOptions{Charts: true, Heatmaps: true})

	study, err := Analyze(context.Background(), Simulate(campaign.DefaultConfig(8)))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	study.FullReport(&got, ReportOptions{Charts: true, Heatmaps: true})
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("Analyze(Simulate) report diverges from RunPaperStudy")
	}
	if study.Config == nil {
		t.Fatal("simulation study lost its campaign configuration")
	}

	lean, err := Analyze(context.Background(), Simulate(campaign.DefaultConfig(8)), WithoutDataset())
	if err != nil {
		t.Fatal(err)
	}
	if lean.Config == nil || lean.Figures == nil {
		t.Fatal("WithoutDataset simulation lost Config or Figures")
	}
}

// TestAnalyzeValidatesOptions: invalid configurations must produce
// descriptive errors instead of the old silent clamping.
func TestAnalyzeValidatesOptions(t *testing.T) {
	dir := t.TempDir()
	sessions, faults, _ := replayFixture()
	if err := logstore.Export(sessions, faults, dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	check := func(wantSub string, _ *Study, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("no error, want one mentioning %q", wantSub)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("error %q does not mention %q", err, wantSub)
		}
	}

	s, err := Analyze(ctx, Logs(dir), WithWorkers(-3))
	check("workers", s, err)
	s, err = Analyze(ctx, Logs(dir), WithController("not-a-node"))
	check("controller", s, err)
	s, err = Analyze(ctx, Logs(dir, WithController("bogus!")))
	check("controller", s, err)
	s, err = Analyze(ctx, Simulate(nil))
	check("Config", s, err)
	s, err = Analyze(ctx, nil)
	check("Source", s, err)
	s, err = Analyze(ctx, Logs(dir), WithObservers(nil))
	check("Observer", s, err)

	// A bad option baked into a Source surfaces from Events too, not only
	// through Analyze.
	for ev, err := range Logs(dir, WithWorkers(-2)).Events(ctx) {
		if err == nil {
			t.Fatalf("bad source delivered %+v", ev)
		}
		check("workers", nil, err)
		break
	}
}

// countingObserver records everything it sees and whether Finish ran.
type countingObserver struct {
	faults   []extract.Fault
	sessions []eventlog.Session
	finished bool
	fail     error
}

func (c *countingObserver) ObserveFault(f extract.Fault) { c.faults = append(c.faults, f) }
func (c *countingObserver) ObserveSession(s eventlog.Session) {
	c.sessions = append(c.sessions, s)
}
func (c *countingObserver) Finish() error { c.finished = true; return c.fail }

// TestAnalyzeObserversAndWithoutDataset: attached observers ride the same
// pass (seeing exactly the dataset, in order), WithoutDataset leaves the
// slices empty while still feeding figures and observers, and a Finish
// error fails the run.
func TestAnalyzeObserversAndWithoutDataset(t *testing.T) {
	sessions, faults, controller := replayFixture()
	dir := t.TempDir()
	if err := logstore.Export(sessions, faults, dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	full, err := Analyze(ctx, Logs(dir, WithController(controller)))
	if err != nil {
		t.Fatal(err)
	}

	obs := &countingObserver{}
	lean, err := Analyze(ctx, Logs(dir, WithController(controller)),
		WithObservers(obs), WithoutDataset())
	if err != nil {
		t.Fatal(err)
	}
	if !obs.finished {
		t.Fatal("observer Finish never ran")
	}
	if len(lean.Dataset.Faults) != 0 || len(lean.Dataset.Sessions) != 0 {
		t.Fatal("WithoutDataset still materialized the dataset")
	}
	if len(obs.faults) != len(full.Dataset.Faults) {
		t.Fatalf("observer saw %d faults, dataset holds %d", len(obs.faults), len(full.Dataset.Faults))
	}
	for i := range obs.faults {
		if obs.faults[i] != full.Dataset.Faults[i] {
			t.Fatalf("observer fault %d differs from dataset", i)
		}
	}
	if len(obs.sessions) != len(full.Dataset.Sessions) {
		t.Fatalf("observer saw %d sessions, dataset holds %d", len(obs.sessions), len(full.Dataset.Sessions))
	}
	// Figures still accumulate on the pure-streaming run.
	if *lean.Figures.HourOfDay != *full.Figures.HourOfDay {
		t.Fatal("WithoutDataset diverged the hour-of-day figure")
	}
	if lean.Dataset.RawLogs != full.Dataset.RawLogs {
		t.Fatal("WithoutDataset lost the raw-log accounting")
	}

	// Observers and WithoutDataset baked into the Logs call itself are
	// equivalent to passing them to Analyze.
	baked := &countingObserver{}
	bakedStudy, err := Analyze(ctx,
		Logs(dir, WithController(controller), WithObservers(baked), WithoutDataset()))
	if err != nil {
		t.Fatal(err)
	}
	if !baked.finished || len(baked.faults) != len(full.Dataset.Faults) {
		t.Fatalf("source-baked observer saw %d faults (finished=%v), want %d",
			len(baked.faults), baked.finished, len(full.Dataset.Faults))
	}
	if len(bakedStudy.Dataset.Faults) != 0 {
		t.Fatal("source-baked WithoutDataset still materialized the dataset")
	}

	failing := &countingObserver{fail: errors.New("boom")}
	if _, err := Analyze(ctx, Logs(dir, WithController(controller)), WithObservers(failing)); err == nil ||
		!strings.Contains(err.Error(), "boom") {
		t.Fatalf("observer Finish error not surfaced: %v", err)
	}
}

// TestAnalyzeCancelLeakFree is the goroutine-leak regression gate: a
// cancelled Analyze must return ctx.Err() and leave the goroutine count
// where it started, whether the cancellation lands during simulation
// (timer) or mid-stream (observer-triggered).
func TestAnalyzeCancelLeakFree(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	baseline := runtime.NumGoroutine()

	// Cancel ~5ms into a ~1s campaign: lands while the worker pool is
	// simulating nodes.
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	study, err := Analyze(ctx, Simulate(campaign.DefaultConfig(2)))
	timer.Stop()
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want context.Canceled", study, err)
	}

	// Cancel from inside the stream: the 50th fault pulls the plug.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	n := 0
	obs := stream.FuncObserver{Fault: func(extract.Fault) {
		if n++; n == 50 {
			cancel2()
		}
	}}
	study, err = Analyze(ctx2, Simulate(campaign.DefaultConfig(2)), WithObservers(obs))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want context.Canceled", study, err)
	}
	if n != 50 {
		t.Fatalf("observer fed %d faults after cancellation, want exactly 50", n)
	}

	// Cancel while the parts are assembled: the context turns cancelled
	// at the assembly pool's second claim, once its first unit runs.
	ctx3 := &armedCtx{}
	ctx3.Context, ctx3.cancel = context.WithCancel(context.Background())
	defer ctx3.cancel()
	src := cancelInAssembly{simSource: &simSource{cfg: campaign.DefaultConfig(2)}, ctx: ctx3}
	study, err = Analyze(ctx3, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want context.Canceled", study, err)
	}
	if ctx3.checks.Load() < 2 {
		t.Fatal("the assembly never ran")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// armedCtx is a cancellable context that cancels itself on the second
// Err check after it is armed.
type armedCtx struct {
	context.Context
	cancel context.CancelFunc
	armed  atomic.Bool
	checks atomic.Int32
}

func (c *armedCtx) Err() error {
	if c.armed.Load() && c.checks.Add(1) == 2 {
		c.cancel()
	}
	return c.Context.Err()
}

// cancelInAssembly is a simulation source whose parts arm ctx once they
// are ready, so the run is cancelled while Analyze assembles them.
type cancelInAssembly struct {
	*simSource
	ctx *armedCtx
}

func (c cancelInAssembly) configure(*options) (stream.Source, error) { return c, nil }

func (c cancelInAssembly) parts(ctx context.Context) (stream.Parts, error) {
	p, err := c.simSource.parts(ctx)
	c.ctx.armed.Store(true)
	return p, err
}

func (c cancelInAssembly) workers() int { return 2 }

// customSource is an external Source implementation: Analyze must accept
// any iterator honouring the stream contract, not just the built-ins.
type customSource struct {
	faults   []extract.Fault
	sessions []eventlog.Session
}

func (c *customSource) Events(ctx context.Context) iter.Seq2[stream.Event, error] {
	return func(yield func(stream.Event, error) bool) {
		if !yield(stream.StatsEvent(&stream.Stats{Faults: len(c.faults), Sessions: len(c.sessions)}), nil) {
			return
		}
		for _, f := range c.faults {
			if !yield(stream.FaultEvent(f), nil) {
				return
			}
		}
		for _, s := range c.sessions {
			if !yield(stream.SessionEvent(s), nil) {
				return
			}
		}
	}
}

// TestAnalyzeCustomSource: a third-party Source gets the same sink —
// dataset, figures, observers — as the built-ins.
func TestAnalyzeCustomSource(t *testing.T) {
	sessions, faults, _ := replayFixture()
	src := &customSource{faults: faults, sessions: sessions}
	obs := &countingObserver{}
	study, err := Analyze(context.Background(), src, WithController("02-04"), WithObservers(obs))
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Dataset.Faults) != len(faults) || len(study.Dataset.Sessions) != len(sessions) {
		t.Fatal("custom source dataset incomplete")
	}
	if study.Dataset.ControllerNode != (cluster.NodeID{Blade: 2, SoC: 4}) {
		t.Fatal("WithController ignored for custom source")
	}
	if study.Dataset.Topo == nil {
		t.Fatal("custom source study carries no topology")
	}
	if !obs.finished || len(obs.faults) != len(faults) {
		t.Fatal("observer not fed from custom source")
	}
	var buf bytes.Buffer
	study.FullReport(&buf, ReportOptions{})
	if !strings.Contains(buf.String(), "independent memory faults") {
		t.Fatal("custom-source report missing headline")
	}
}
