// Package campaign orchestrates the year-long measurement campaign: it
// wires the cluster topology, scheduler, thermal and radiation models and
// each node's fault plan into per-node scan-session simulations, runs them
// on a worker pool, and streams the study dataset every analysis consumes.
//
// The engine is a streaming pipeline (see DESIGN.md): each worker
// simulates a node, extracts and sorts that node's faults locally, and
// Parts returns the per-node sorted streams. Events interleaves them with
// a deterministic k-way loser-tree merge into the canonical global order
// and yields faults and sessions to the caller one at a time, as a
// stream.Source iterator, without materializing the merged dataset;
// core.Analyze assembles its Study from the Parts directly.
//
// Determinism: each node draws from an independent RNG stream derived from
// (campaign seed, node index); per-node streams are sorted by the total
// orders extract.Compare and eventlog.CompareSessions and merged keyed on
// (time, node, ...), so results are identical for any Workers setting.
package campaign

import (
	"context"
	"iter"
	"sort"
	"sync"

	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/faults"
	"unprotected/internal/radiation"
	"unprotected/internal/rng"
	"unprotected/internal/scanner"
	"unprotected/internal/sched"
	"unprotected/internal/solar"
	"unprotected/internal/stream"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

// Config parameterizes a campaign.
type Config struct {
	Seed uint64
	Topo *cluster.Topology
	// Sched drives idle-window generation.
	Sched sched.Profile
	// Site locates the machine for the solar/radiation models.
	Site solar.Site
	// CounterModeFrac is the fraction of sessions run in counter mode
	// ("most of the study was done using the former [flip] method").
	CounterModeFrac float64
	// Leak models scanner allocation shortfall from leaky jobs.
	Leak scanner.LeakModel
	// AmbientRatePerHour is the background strike rate per node-hour.
	AmbientRatePerHour float64
	// Profile places the study's specific faults onto nodes.
	Profile *Profile
	// SoC12OffFrom mirrors the topology's SoC-12 power-off instant for
	// temperature computation (before it, SoC 12 heats its neighbours).
	SoC12OffFrom timebase.T
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Gate, when non-nil, is a shared counting semaphore (a buffered
	// channel) bounding concurrent node simulations across every campaign
	// carrying the same channel: a token is acquired before simulating a
	// node and released immediately after, so N concurrent campaigns with
	// per-campaign pools never run more than cap(Gate) simulations at
	// once. The sweep engine (internal/sweep) uses this to keep a whole
	// scenario fleet inside one worker budget. Scheduling never affects
	// the merged stream, so output is identical with or without a Gate.
	Gate chan struct{}

	// StressSoC12 enables the paper's §VI stress-test proposal: the
	// overheating SoC-12 positions stay powered all year and
	// temperature-accelerated retention faults are modeled on them and
	// their neighbours. Use StressConfig to build a consistent topology.
	StressSoC12 bool
	// Swap, when set, performs the paper's §VI component-swap experiment:
	// the degrading component of the controller node moves to a healthy
	// node at the given instant.
	Swap *SwapSpec
}

// SwapSpec schedules the §VI component-swap experiment.
type SwapSpec struct {
	At timebase.T
	// To receives the faulty component; the controller node gives it up.
	To cluster.NodeID
}

// nodeOutput is one worker's result.
type nodeOutput struct {
	runs       []extract.RawRun
	sessions   []eventlog.Session
	rawLogs    int64
	allocFails int
	node       cluster.NodeID
	excluded   bool // pathological: runs are not characterized
}

// nodeStream is one node's finalized, locally sorted contribution to the
// campaign stream.
type nodeStream struct {
	faults     []extract.Fault
	sessions   []eventlog.Session
	rawLogs    int64
	allocFails int
	node       cluster.NodeID
}

// Events executes the campaign and yields the merged stream as an
// iterator honouring the internal/stream contract: a stats prologue, then
// every characterized fault in extract.Compare order, then every session
// in eventlog.CompareSessions order. It is Parts followed by
// stream.Deliver, whose deterministic k-way merges (internal/kway, shared
// with the log-replay loader and the fault store) interleave the per-node
// streams into the canonical global orders — the merged dataset is never
// materialized here.
//
// Cancelling ctx aborts the campaign: unsimulated nodes are skipped, and
// the pool exits before the iterator yields its final (zero Event,
// ctx.Err()) pair, so an abandoned run leaks no goroutines. Breaking out
// of the range mid-merge releases everything immediately — by the first
// yield the pool has already wound down. Delivery itself performs no
// per-event allocation.
//
// A core.Simulate source's Events calls Parts and stream.Deliver itself,
// so this iterator serves only the benchmark harness (bench/) and the
// tests.
func Events(ctx context.Context, cfg *Config) iter.Seq2[stream.Event, error] {
	return func(yield func(stream.Event, error) bool) {
		p, err := Parts(ctx, cfg)
		if err != nil {
			yield(stream.Event{}, err)
			return
		}
		stream.Deliver(ctx, yield, p.Stats, p.Faults, p.Sessions)
	}
}

// Parts simulates and finalizes every scanned node on a stream.Collect
// pool of cfg.Workers and returns the per-node sorted streams, in node
// order, plus the scalar stats. Each node is simulated end to end and
// finalized in place on its worker: the node's raw runs are sorted and
// classified into faults there (so extraction parallelizes across the
// pool), and its sessions are ordered by start time. Cancelling ctx
// skips the unsimulated nodes and returns ctx.Err() once the pool has
// exited.
func Parts(ctx context.Context, cfg *Config) (stream.Parts, error) {
	if cfg.Topo == nil {
		cfg.Topo = cluster.PaperTopology()
	}
	plans := cfg.Profile.build(cfg)
	nodes := cfg.Topo.ScannedNodes()
	outs, err := stream.Collect(ctx, len(nodes), cfg.Workers, func(i int) (nodeStream, error) {
		if cfg.Gate != nil {
			select {
			case cfg.Gate <- struct{}{}:
			case <-ctx.Done():
				return nodeStream{}, ctx.Err()
			}
			// The token covers the CPU-heavy simulation only, so sibling
			// campaigns sharing the gate proceed while this one merges.
			defer func() { <-cfg.Gate }()
		}
		// The package pool hands the scratch from node to node and across
		// campaigns: a sweep's scenario fleet resimulates with the buffers
		// its predecessors grew.
		sc := scratchPool.Get().(*nodeScratch)
		defer scratchPool.Put(sc)
		n := nodes[i]
		return finalizeNode(simulateNode(cfg, n, plans[n.ID], sc)), nil
	})
	if err != nil {
		return stream.Parts{}, err
	}

	p := stream.Parts{
		Stats:    &stream.Stats{RawLogsByNode: make(map[cluster.NodeID]int64)},
		Faults:   make([][]extract.Fault, 0, len(outs)),
		Sessions: make([][]eventlog.Session, 0, len(outs)),
	}
	for _, out := range outs {
		p.Stats.Faults += len(out.faults)
		p.Stats.Sessions += len(out.sessions)
		p.Stats.RawLogs += out.rawLogs
		if out.rawLogs > 0 {
			p.Stats.RawLogsByNode[out.node] += out.rawLogs
		}
		p.Stats.AllocFails += out.allocFails
		if len(out.faults) > 0 {
			p.Faults = append(p.Faults, out.faults)
		}
		if len(out.sessions) > 0 {
			p.Sessions = append(p.Sessions, out.sessions)
		}
	}
	return p, nil
}

// finalizeNode turns a simulated node's raw output into its sorted stream
// contribution. This runs on the worker, so per-node extraction and
// sorting parallelize across the pool instead of serializing after it.
// The pathological node's runs are not characterized (§III-B), so an
// excluded node contributes sessions and raw-log counts only.
func finalizeNode(out nodeOutput) nodeStream {
	ns := nodeStream{
		sessions:   out.sessions,
		rawLogs:    out.rawLogs,
		allocFails: out.allocFails,
		node:       out.node,
	}
	if !out.excluded {
		ns.faults = extract.Faults(out.runs)
		extract.SortFaults(ns.faults)
	}
	// Sessions are generated in window order, which is already start-time
	// order for scheduler windows; the pathological node's trimmed +
	// continuous window splice preserves it too. Sorting is a near-no-op
	// pass that turns that invariant into a guarantee.
	sort.Slice(ns.sessions, func(i, j int) bool {
		return eventlog.CompareSessions(&ns.sessions[i], &ns.sessions[j]) < 0
	})
	return ns
}

// nodeScratch is the reusable simulation state: the window and raw-run
// buffers a node simulation fills and its finalization drains. Nothing in
// a finished nodeStream aliases the scratch (faults are classified into a
// fresh slice, sessions are node-owned), so each node borrows one from the
// package-level pool for its simulation alone, and the pool carries the
// grown buffers from node to node and across campaigns — the sweep
// engine's scenarios resimulate million-session fleets without regrowing
// them.
type nodeScratch struct {
	windows []sched.Window
	runs    []extract.RawRun
}

// scratchPool recycles nodeScratch values across workers, campaigns and
// sweep scenarios.
var scratchPool = sync.Pool{New: func() any { return new(nodeScratch) }}

// simulateNode runs one node's full-year simulation. The returned output's
// runs slice is backed by sc and is only valid until the next simulateNode
// call with the same scratch — finalizeNode consumes it before then.
func simulateNode(cfg *Config, node *cluster.Node, plan *faults.Plan, sc *nodeScratch) nodeOutput {
	r := rng.Derive(cfg.Seed, uint64(node.ID.Index()))
	gen := sched.NewGenerator(cfg.Sched)
	sc.windows = gen.AppendNodeWindows(sc.windows[:0], node, r)
	windows := sc.windows

	out := nodeOutput{node: node.ID}
	therm := thermal.New()
	scrambler := sharedScrambler
	polarity := sharedPolarity

	// The pathological node scans continuously once failed: it was removed
	// from the scheduler pool, so nothing ever SIGTERMed its scanner.
	if plan != nil && plan.Pathological != nil {
		out.excluded = true
		var trimmed []sched.Window
		for _, w := range windows {
			if w.To <= plan.Pathological.Active.From {
				trimmed = append(trimmed, w)
			} else if w.From < plan.Pathological.Active.From {
				w.To = plan.Pathological.Active.From
				trimmed = append(trimmed, w)
			}
		}
		for _, b := range plan.Pathological.ContinuousWindows(timebase.T(timebase.StudySeconds)) {
			trimmed = append(trimmed, sched.Window{From: b.From, To: b.To})
		}
		windows = trimmed
	}

	// One SessionCtx (and one temperature closure) serves every window of
	// the node: only the per-session fields change between windows.
	// Allocating these per window used to be the single largest campaign
	// allocation site after the timezone cache.
	soc12Off := cfg.SoC12OffFrom
	nodeID := node.ID
	ctx := &faults.SessionCtx{
		Node: nodeID,
		Rng:  r,
		Temp: func(at timebase.T) float64 {
			return therm.NodeTemp(nodeID, at, at < soc12Off, r)
		},
		Polarity:  polarity,
		Scrambler: scrambler,
	}
	out.sessions = make([]eventlog.Session, 0, len(windows))
	out.runs = sc.runs[:0]
	for _, w := range windows {
		avail := cfg.Leak.Available(r)
		alloc := scanner.Allocate(avail)
		if alloc == 0 {
			out.allocFails++
			continue
		}
		mode := scanner.FlipMode
		if r.Bernoulli(cfg.CounterModeFrac) {
			mode = scanner.CounterMode
		}
		ctx.Window = w
		ctx.Alloc = alloc
		ctx.Mode = mode
		ctx.IterDur = scanner.IterDuration(alloc)
		ctx.Words = alloc / 4
		if plan != nil {
			for _, src := range plan.Sources {
				out.rawLogs += src.Emit(ctx, &out.runs)
			}
			if plan.Pathological != nil {
				out.rawLogs += plan.Pathological.Emit(ctx, &out.runs)
			}
		}
		out.sessions = append(out.sessions, eventlog.Session{
			Host: node.ID, From: w.From, To: w.To,
			AllocBytes: alloc, Truncated: w.HardReboot,
		})
	}
	// Keep the grown runs buffer for the scratch's next node.
	sc.runs = out.runs
	return out
}

// Shared immutable models: the scrambler search and polarity map are pure
// functions of fixed seeds, safe to share across workers (read-only after
// construction).
var (
	sharedScrambler = dram.NewScrambler()
	sharedPolarity  = dram.NewPolarityMap(0xd0_c4_11)
)

// Scrambler exposes the shared bit scrambler for analyses and tests.
func Scrambler() *dram.Scrambler { return sharedScrambler }

// Polarity exposes the shared polarity map.
func Polarity() *dram.PolarityMap { return sharedPolarity }

// FluxFor builds the site flux model used by fault profiles.
func FluxFor(site solar.Site) *radiation.Flux { return radiation.NewFlux(site) }
