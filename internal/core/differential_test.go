package core

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"unprotected/internal/analysis"
	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/faultstore"
	"unprotected/internal/logstore"
	"unprotected/internal/stream"
	"unprotected/internal/thermal"
)

// --- differential harness: Analyze vs an independent reference ---
//
// Analyze builds a built-in source's Study from its sorted parts —
// parallel figure folds and typed merges — and must be observationally
// identical to a reference that shares none of its ordering or assembly
// machinery: referenceStudy drains the source's Events, reverses the
// faults and sessions and re-sorts them with a plain stable sort under the
// canonical comparators (both are total orders, so the sorted sequence is
// unique), and folds them into one figure bundle of its own, element by
// element — no parts, no k-way merge and no partials in between. Each
// matrix cell renders the complete study — every figure, table, chart and
// heatmap — from both paths and requires the bytes to be equal.

// diffConfig builds one matrix cell's campaign configuration.
func diffConfig(seed uint64, blades int, counterFrac float64, workers int) *campaign.Config {
	cfg := campaign.DefaultConfig(seed)
	cfg.Topo = topoWithBlades(blades)
	cfg.CounterModeFrac = counterFrac
	cfg.Workers = workers
	return cfg
}

// topoWithBlades restricts the paper roster to blades 1..n, like the
// sweep engine's cluster-size axis: scanned nodes beyond the cut are
// excluded, special roles keep their spots.
func topoWithBlades(n int) *cluster.Topology {
	topo := cluster.PaperTopology()
	for _, node := range topo.Nodes {
		if node.ID.Blade > n && node.Role == cluster.Scanned {
			node.Role = cluster.Excluded
		}
	}
	return topo
}

// reference is a source's Study assembled through the reference path,
// with the canonical sequences it folded.
type reference struct {
	study    *Study
	faults   []extract.Fault
	sessions []eventlog.Session
}

// referenceStudy assembles a Study from src's Events through the
// reference path described above, so any divergence in the rendered
// report is attributable to Analyze's assembly alone. The study metadata
// — controller, pathological node, topology — is read from what the
// source's constructor was given: a campaign's profile and topology, or a
// replay's options.
func referenceStudy(t *testing.T, src stream.Source) reference {
	t.Helper()
	var faults []extract.Fault
	var sessions []eventlog.Session
	var stats *stream.Stats
	for ev, err := range src.Events(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case stream.KindStats:
			stats = ev.Stats
		case stream.KindFault:
			faults = append(faults, ev.Fault)
		case stream.KindSession:
			sessions = append(sessions, ev.Session)
		}
	}
	slices.Reverse(faults)
	slices.Reverse(sessions)
	sort.SliceStable(faults, func(i, j int) bool { return extract.Compare(&faults[i], &faults[j]) < 0 })
	sort.SliceStable(sessions, func(i, j int) bool { return eventlog.CompareSessions(&sessions[i], &sessions[j]) < 0 })

	s := src.(*source)
	var o options
	if err := o.apply(s.opts); err != nil {
		t.Fatal(err)
	}
	controller, pathological, topo := o.controller, cluster.NodeID{}, cluster.PaperTopology()
	if s.cfg != nil {
		controller, pathological, topo = s.cfg.Profile.ControllerNode, s.cfg.Profile.PathologicalNode, s.cfg.Topo
	}
	figures := analysis.NewAccumulators(excludedNodes(controller)...)
	for _, f := range faults {
		figures.ObserveFault(f)
	}
	for _, s := range sessions {
		figures.ObserveSession(s)
	}
	_ = figures.Finish()
	study := &Study{
		Dataset: &analysis.Dataset{
			Faults: faults, Sessions: sessions,
			RawLogs: stats.RawLogs, RawLogsByNode: stats.RawLogsByNode,
			ControllerNode: controller, PathologicalNode: pathological, Topo: topo,
		},
		Figures: figures,
	}
	return reference{study: study, faults: faults, sessions: sessions}
}

func renderFull(t *testing.T, s *Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	s.FullReport(&buf, ReportOptions{Charts: true, Heatmaps: true})
	return buf.Bytes()
}

// diffCase is one built-in source of the matrix and the reference its
// every cell must reproduce. src builds a fresh source per run: a
// campaign adjusts its own topology while it runs. A datasetOnly case
// varies the campaign, not the assembly, so it skips the lean modes.
type diffCase struct {
	name        string
	src         func() stream.Source
	ref         reference
	want        []byte
	datasetOnly bool
}

func newDiffCase(t *testing.T, name string, src func() stream.Source) diffCase {
	ref := referenceStudy(t, src())
	return diffCase{name: name, src: src, ref: ref, want: renderFull(t, ref.study)}
}

// simCase builds the Simulate case of one campaign.
func simCase(t *testing.T, seed uint64, blades int, frac float64) diffCase {
	name := fmt.Sprintf("blades=%d/counter=%v", blades, frac)
	return newDiffCase(t, name, func() stream.Source { return Simulate(diffConfig(seed, blades, frac, 0)) })
}

// replayCases builds the Logs and Store cases of a simulated campaign:
// its export, and a store ingested from the export, replay what the
// campaign delivered.
func replayCases(t *testing.T, seed uint64, sim diffCase) []diffCase {
	name := sim.name
	dir := t.TempDir()
	logs, storeDir := filepath.Join(dir, "logs"), filepath.Join(dir, "store")
	if err := logstore.Export(sim.ref.sessions, sim.ref.faults, logs); err != nil {
		t.Fatal(err)
	}
	if _, err := faultstore.Ingest(context.Background(), logs, storeDir); err != nil {
		t.Fatal(err)
	}
	controller := campaign.DefaultConfig(seed).Profile.ControllerNode.String()
	return []diffCase{
		newDiffCase(t, "logs/"+name, func() stream.Source { return Logs(logs, WithController(controller)) }),
		newDiffCase(t, "store/"+name, func() stream.Source { return Store(storeDir, WithController(controller)) }),
	}
}

// splitGenerationCase: a store built by two additive ingests that both
// hold a fault of one node at the same FirstAt, read before any compaction.
// The node's simultaneity group spans two segments, which are two parts.
func splitGenerationCase(t *testing.T) diffCase {
	sessions, faults, controller := replayFixture()
	own := faults[len(faults)/3]
	second := extract.Classify(extract.RawRun{
		Node: own.Node, Addr: own.Addr + 4000, FirstAt: own.FirstAt, LastAt: own.FirstAt + 20,
		Logs: 2, Expected: 0xffffffff, Actual: 0xffff7fff, TempC: thermal.NoReading,
	})
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	for i, batch := range [][]extract.Fault{faults, {second}} {
		logs := filepath.Join(dir, fmt.Sprint("batch", i))
		var ss []eventlog.Session
		if i == 0 {
			ss = sessions
		}
		if err := logstore.Export(ss, batch, logs); err != nil {
			t.Fatal(err)
		}
		if _, err := faultstore.Ingest(context.Background(), logs, storeDir); err != nil {
			t.Fatal(err)
		}
	}
	return newDiffCase(t, "store/split-generations", func() stream.Source { return Store(storeDir, WithController(controller)) })
}

// diffModes are the ways a cell runs Analyze: with the dataset, and
// without it (WithoutDataset) with and without an observer. suffix ends
// the cell's name.
var diffModes = []struct {
	suffix        string
	lean, observe bool
}{
	{"", false, false},
	{"/lean+observer", true, true},
	{"/lean", true, false},
}

// TestDifferentialDeliveryMatrix: Simulate, Logs and Store sources ×
// workers × dataset/observer mode, Analyze vs the reference, byte for
// byte. Four simulated campaigns vary the cluster size and the
// counter-mode share; the last also runs without its dataset, and the
// Logs and Store cases replay it. A small store fixture holds a
// simultaneity group in two parts. A lean cell's Study carries no
// dataset, so it renders with the observer's sequences (which must equal
// the reference's element for element) or the reference's own in the
// dataset's place: its figures are still Analyze's.
func TestDifferentialDeliveryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix of campaigns")
	}
	const seed = 1916
	var cases []diffCase
	for _, blades := range []int{2, 3} {
		for _, frac := range []float64{0, 0.15} {
			c := simCase(t, seed, blades, frac)
			c.datasetOnly = true
			cases = append(cases, c)
		}
	}
	sim := &cases[len(cases)-1]
	sim.datasetOnly = false
	cases = append(cases, replayCases(t, seed, *sim)...)
	cases = append(cases, splitGenerationCase(t))
	for _, c := range cases {
		for _, workers := range []int{1, 2, 4} {
			for _, m := range diffModes {
				if c.datasetOnly && m.lean {
					continue
				}
				t.Run(fmt.Sprintf("workers=%d/%s%s", workers, c.name, m.suffix), func(t *testing.T) {
					opts := []Option{WithWorkers(workers)}
					if m.lean {
						opts = append(opts, WithoutDataset())
					}
					obs := &countingObserver{}
					if m.observe {
						opts = append(opts, WithObservers(obs))
					}
					study, err := Analyze(context.Background(), c.src(), opts...)
					if err != nil {
						t.Fatal(err)
					}
					if m.observe {
						if !obs.finished {
							t.Fatal("observer Finish never ran")
						}
						if !slices.Equal(obs.faults, c.ref.faults) || !slices.Equal(obs.sessions, c.ref.sessions) {
							t.Fatalf("observer saw %d faults and %d sessions out of the reference's order (%d, %d)",
								len(obs.faults), len(obs.sessions), len(c.ref.faults), len(c.ref.sessions))
						}
					}
					if m.lean {
						if study.Dataset.Faults != nil || study.Dataset.Sessions != nil {
							t.Fatal("WithoutDataset still materialized the dataset")
						}
						study.Dataset.Faults, study.Dataset.Sessions = c.ref.faults, c.ref.sessions
						if m.observe {
							study.Dataset.Faults, study.Dataset.Sessions = obs.faults, obs.sessions
						}
					}
					if got := renderFull(t, study); !bytes.Equal(c.want, got) {
						t.Fatalf("Analyze changed the rendered study (%d vs %d bytes)", len(c.want), len(got))
					}
				})
			}
		}
	}
}

// TestDifferentialCancelMidway: the cancellation cells of the matrix. A
// context cancelled mid-stream must deliver exactly the uncancelled
// prefix, then one (zero Event, ctx.Err()) pair and nothing else, no
// matter where inside a merge block the cancel landed.
func TestDifferentialCancelMidway(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix of campaigns")
	}
	const seed = 1916
	for _, workers := range []int{1, 4} {
		cfg := diffConfig(seed, 2, 0.15, workers)
		var full []stream.Event
		for ev, err := range campaign.Events(context.Background(), cfg) {
			if err != nil {
				t.Fatal(err)
			}
			full = append(full, ev)
		}
		// Cancellation points straddling block boundaries (the internal
		// block size is 512) plus the stats prologue and a deep position.
		for _, after := range []int{1, 100, 511, 512, 513, len(full) / 2} {
			t.Run(fmt.Sprintf("workers=%d/after=%d", workers, after), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var events []stream.Event
				var finalErr error
				tail := 0
				for ev, err := range campaign.Events(ctx, cfg) {
					if finalErr != nil {
						tail++ // deliveries after the error pair: must stay 0
						continue
					}
					if err != nil {
						finalErr = err
						continue
					}
					events = append(events, ev)
					if len(events) == after {
						cancel()
					}
				}
				if finalErr != context.Canceled {
					t.Fatalf("final error %v, want context.Canceled", finalErr)
				}
				if tail != 0 {
					t.Fatalf("%d events delivered after ctx.Done", tail)
				}
				if len(events) != after {
					t.Fatalf("%d events before the error pair, want %d", len(events), after)
				}
				for i := range events {
					if events[i].Kind != full[i].Kind {
						t.Fatalf("event %d: kind %v vs %v", i, events[i].Kind, full[i].Kind)
					}
					switch events[i].Kind {
					case stream.KindFault:
						if events[i].Fault != full[i].Fault {
							t.Fatalf("event %d: fault diverges under cancellation", i)
						}
					case stream.KindSession:
						if events[i].Session != full[i].Session {
							t.Fatalf("event %d: session diverges under cancellation", i)
						}
					}
				}
			})
		}
	}
}
