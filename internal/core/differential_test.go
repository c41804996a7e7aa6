package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/stream"
)

// --- differential harness: batched delivery vs an independent reference ---
//
// The batched, pooled delivery path (stream.Deliver via Analyze) must be
// observationally identical to a reference that shares none of its
// ordering machinery: referenceStudy collects the campaign's faults and
// sessions, reverses them and re-sorts them with a plain stable sort under
// the canonical comparators (both are total orders, so the sorted
// sequence is unique), and feeds the sink Analyze uses element by element
// — no k-way merge, no block layer, no pooled buffers and no iterator
// plumbing in between. Each matrix cell renders the complete study —
// every figure, table, chart and heatmap — from both paths and requires
// the bytes to be equal.

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

// referenceStudy assembles a Study from cfg's campaign through the
// reference path described above, so any divergence in the rendered
// report is attributable to the delivery layer alone.
func referenceStudy(t *testing.T, cfg *campaign.Config) *Study {
	t.Helper()
	var faults []extract.Fault
	var sessions []eventlog.Session
	var stats *stream.Stats
	for ev, err := range campaign.Events(context.Background(), cfg) {
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

	var controller, pathological cluster.NodeID
	if cfg.Profile != nil {
		controller = cfg.Profile.ControllerNode
		pathological = cfg.Profile.PathologicalNode
	}
	sink := newStreamSink(controller, pathological)
	for _, f := range faults {
		sink.fault(f)
	}
	for _, s := range sessions {
		sink.session(s)
	}
	study := sink.study(cfg.Topo, stats.RawLogs, stats.RawLogsByNode)
	study.Config = cfg
	study.Result = &campaign.Result{
		Cfg: cfg, Faults: study.Dataset.Faults, Sessions: study.Dataset.Sessions,
		RawLogs: stats.RawLogs, RawLogsByNode: stats.RawLogsByNode,
		AllocFails: stats.AllocFails,
	}
	return study
}

func renderFull(t *testing.T, s *Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	s.FullReport(&buf, ReportOptions{Charts: true, Heatmaps: true})
	return buf.Bytes()
}

// TestDifferentialDeliveryMatrix: workers × blades × pattern, reference vs
// batched delivery, byte for byte.
func TestDifferentialDeliveryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix of campaigns")
	}
	const seed = 1916
	for _, workers := range []int{1, 4} {
		for _, blades := range []int{2, 3} {
			for _, frac := range []float64{0, 0.15} {
				name := fmt.Sprintf("workers=%d/blades=%d/counter=%v", workers, blades, frac)
				t.Run(name, func(t *testing.T) {
					want := renderFull(t, referenceStudy(t, diffConfig(seed, blades, frac, workers)))
					study, err := Analyze(context.Background(), Simulate(diffConfig(seed, blades, frac, workers)))
					if err != nil {
						t.Fatal(err)
					}
					got := renderFull(t, study)
					if !bytes.Equal(want, got) {
						t.Fatalf("batched delivery changed the rendered study (%d vs %d bytes)", len(want), len(got))
					}
					if n := stream.LiveBatches(); n != 0 {
						t.Fatalf("%d pooled delivery blocks leaked", n)
					}
				})
			}
		}
	}
}

// TestDifferentialCancelMidway: the cancellation cells of the matrix. A
// context cancelled mid-stream must deliver exactly the uncancelled
// prefix, then one (zero Event, ctx.Err()) pair and nothing else — and
// the pooled delivery block must be back in the pool when the iterator
// returns, no matter where inside a block the cancel landed.
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
				if n := stream.LiveBatches(); n != 0 {
					t.Fatalf("%d pooled delivery blocks leaked on cancellation", n)
				}
			})
		}
	}
}
