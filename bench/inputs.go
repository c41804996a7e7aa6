package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/core"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/logstore"
	"unprotected/internal/stream"
)

// params fixes one run's inputs and run length. Everything the program
// under test sees is generated from seed; the other fields size the run.
type params struct {
	seed   uint64
	budget time.Duration // measured time per workload
	minOps int           // closed loop: operations run even past the budget
	setups int           // set-up repetitions; setup_s is their (normalized) median
	blades int           // scanned blades; 0 keeps the full paper topology
	// Live workload: hours of fleet logs held back from the backlog and
	// appended one per round, the round period, the /study GET period, and
	// the rounds of the traced run's monitor probe.
	heldHours   int
	interval    time.Duration
	getEvery    time.Duration
	probeRounds int
	refRecords  int    // size of the reference workload timed between operations
	work        string // scratch directory, removed by the caller
}

func defaultParams(seed uint64, seconds int, work string) params {
	return params{
		seed:        seed,
		budget:      time.Duration(seconds) * time.Second,
		minOps:      3,
		setups:      3,
		heldHours:   60,
		interval:    time.Second, // monitord's default -interval
		getEvery:    50 * time.Millisecond,
		probeRounds: 4,
		refRecords:  250_000,
		work:        work,
	}
}

// config is the seed's campaign, restricted to the first p.blades blades
// when set (the toy size the tests run).
func (p params) config() *campaign.Config {
	cfg := campaign.DefaultConfig(p.seed)
	if p.blades > 0 {
		for _, n := range cfg.Topo.Nodes {
			if n.ID.Blade > p.blades && n.Role == cluster.Scanned {
				n.Role = cluster.Excluded
			}
		}
	}
	return cfg
}

// controller is the permanently failing node log replays must name.
func (p params) controller() string { return p.config().Profile.ControllerNode.String() }

// inputs are the generated inputs plus what the correctness checks need
// to know about them.
type inputs struct {
	setup       []time.Duration
	setupRef    []time.Duration // the reference workload timed right after each set-up
	study       *core.Study     // the simulated study; kept only when asked for
	digest      string          // its report digest
	faults      int
	sessions    int
	exportDir   string // the study exported as per-node text logs ("" if not exported)
	exportBytes int64
}

// generate builds the seed's inputs p.setups times and keeps the last:
// the simulated study and, when export is set, its per-node log export.
// Each repetition is timed, and so is the reference workload right after
// it.
func generate(ctx context.Context, p params, export, keepStudy bool) (*inputs, error) {
	in := &inputs{}
	if export {
		in.exportDir = filepath.Join(p.work, "export")
	}
	var study *core.Study
	for range max(p.setups, 1) {
		start := time.Now()
		s, err := core.Analyze(ctx, core.Simulate(p.config()))
		if err != nil {
			return nil, fmt.Errorf("setup: simulate: %w", err)
		}
		if export {
			if err := os.RemoveAll(in.exportDir); err != nil {
				return nil, err
			}
			if err := logstore.Export(s.Dataset.Sessions, s.Dataset.Faults, in.exportDir); err != nil {
				return nil, fmt.Errorf("setup: export: %w", err)
			}
		}
		in.setup = append(in.setup, time.Since(start))
		study = s
		runtime.GC()
		in.setupRef = append(in.setupRef, reference(p.refRecords))
	}
	in.digest, _ = digest(study)
	in.faults, in.sessions = len(study.Dataset.Faults), len(study.Dataset.Sessions)
	if keepStudy {
		in.study = study
	}
	if export {
		var err error
		if in.exportBytes, err = dirBytes(in.exportDir); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n int
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return c.w.Write(p)
}

// digest renders the full report (charts and heatmaps) into sha256 and
// returns the hex digest and the report's length. Two studies with equal
// digests render byte-identical reports.
func digest(s *core.Study) (string, int) {
	h := sha256.New()
	cw := &countWriter{w: h}
	s.FullReport(cw, core.ReportOptions{Charts: true, Heatmaps: true})
	return hex.EncodeToString(h.Sum(nil)), cw.n
}

// studyRun is one timed study: Analyze from the call to the last report
// byte.
type studyRun struct {
	study  *core.Study
	digest string
	bytes  int
	dur    time.Duration
	// The traced split of dur: the source's work up to its first delivery,
	// delivery plus the sink up to Analyze's return, and the report.
	produce, consume, render time.Duration
}

// runStudy runs Analyze over src and renders the full report into the
// digest. With a tracer it attaches an observer that marks the first
// delivered event, splitting the study into produce, consume and render
// spans that cover it end to end; the observer is the tracing cost.
func runStudy(ctx context.Context, tr *tracer, op, parent int, src stream.Source, opts ...core.Option) (studyRun, error) {
	var first time.Time
	if tr != nil {
		mark := func() {
			if first.IsZero() {
				first = time.Now()
			}
		}
		opts = append(opts[:len(opts):len(opts)], core.WithObservers(stream.FuncObserver{
			Fault:   func(extract.Fault) { mark() },
			Session: func(eventlog.Session) { mark() },
		}))
	}
	start := time.Now()
	s, err := core.Analyze(ctx, src, opts...)
	if err != nil {
		return studyRun{}, err
	}
	analyzed := time.Now()
	d, n := digest(s)
	end := time.Now()
	sr := studyRun{study: s, digest: d, bytes: n, dur: end.Sub(start)}
	if tr != nil {
		if first.IsZero() {
			first = analyzed
		}
		root := tr.add(op, parent, "study", start, end)
		tr.add(op, root, "produce", start, first)
		tr.add(op, root, "consume", first, analyzed)
		tr.add(op, root, "render", analyzed, end)
		sr.produce, sr.consume, sr.render = first.Sub(start), analyzed.Sub(first), end.Sub(analyzed)
	}
	return sr, nil
}
