package campaign

import (
	"context"
	"testing"

	"unprotected/internal/cluster"
)

// TestEventsAllocBudget is the alloc ceiling of the batched engine: a
// warm full campaign drain — simulation, extraction, merge and delivery —
// must stay within a fixed per-run budget plus a fractional per-event
// budget. Before the pooled/batched rework the engine allocated ~3.5
// times per event; the ceiling here pins the reworked path to under one
// allocation per fifty events so a regression of even a single per-event
// allocation site fails loudly.
func TestEventsAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	cfg := DefaultConfig(13)
	cfg.Topo = cluster.PaperTopology()
	for _, node := range cfg.Topo.Nodes {
		if node.ID.Blade > 3 && node.Role == cluster.Scanned {
			node.Role = cluster.Excluded
		}
	}
	cfg.Workers = 1
	ctx := context.Background()

	events := 0
	drain := func() {
		n := 0
		for ev, err := range Events(ctx, cfg) {
			if err != nil {
				t.Fatal(err)
			}
			_ = ev
			n++
		}
		events = n
	}
	drain() // warm the scratch and batch pools, learn the event count
	if events == 0 {
		t.Fatal("campaign delivered nothing")
	}

	allocs := testing.AllocsPerRun(3, drain)
	// Fixed costs: pool goroutines, per-node session slices, stats maps,
	// merge trees. Per-event budget 0.02 ≈ one allocation per 50 events.
	budget := 2000 + float64(events)*0.02
	t.Logf("%d events, %.0f allocs/run (budget %.0f)", events, allocs, budget)
	if allocs > budget {
		t.Fatalf("campaign drain allocated %.0f times for %d events, budget %.0f",
			allocs, events, budget)
	}
}
