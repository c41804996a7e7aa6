package campaign

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/stream"
)

// --- streaming campaign tests ---
// (k-way merge unit tests live with the merge in internal/kway)

// collected is a campaign's dataset in local slices, with the stats
// prologue's counters beside them.
type collected struct {
	Faults        []extract.Fault
	Sessions      []eventlog.Session
	RawLogs       int64
	RawLogsByNode map[cluster.NodeID]int64
	AllocFails    int
}

// legacyCollectAll is the pre-streaming engine: simulate every node
// sequentially, buffer every run, classify once and globally sort. It is
// the reference the streaming pipeline must reproduce byte for byte.
func legacyCollectAll(cfg *Config) *collected {
	if cfg.Topo == nil {
		cfg.Topo = cluster.PaperTopology()
	}
	plans := cfg.Profile.build(cfg)
	res := &collected{RawLogsByNode: make(map[cluster.NodeID]int64)}
	var allRuns []extract.RawRun
	// One shared scratch across every node, like a single worker would
	// use: the runs are copied out below before the next node overwrites
	// the buffer, so reuse here doubles as a reuse-safety check.
	sc := new(nodeScratch)
	for _, n := range cfg.Topo.ScannedNodes() {
		out := simulateNode(cfg, n, plans[n.ID], sc)
		if !out.excluded {
			allRuns = append(allRuns, out.runs...)
		}
		res.Sessions = append(res.Sessions, out.sessions...)
		res.RawLogs += out.rawLogs
		if out.rawLogs > 0 {
			res.RawLogsByNode[out.node] += out.rawLogs
		}
		res.AllocFails += out.allocFails
	}
	res.Faults = extract.Faults(allRuns)
	extract.SortFaults(res.Faults)
	sortSessionsLegacy(res.Sessions)
	return res
}

func sortSessionsLegacy(ss []eventlog.Session) {
	sort.Slice(ss, func(i, j int) bool {
		return eventlog.CompareSessions(&ss[i], &ss[j]) < 0
	})
}

// assertSameResult compares every dataset field of two collected
// campaigns.
func assertSameResult(t *testing.T, label string, a, b *collected) {
	t.Helper()
	if len(a.Faults) != len(b.Faults) {
		t.Fatalf("%s: fault counts %d vs %d", label, len(a.Faults), len(b.Faults))
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("%s: fault %d differs: %+v vs %+v", label, i, a.Faults[i], b.Faults[i])
		}
	}
	if len(a.Sessions) != len(b.Sessions) {
		t.Fatalf("%s: session counts %d vs %d", label, len(a.Sessions), len(b.Sessions))
	}
	for i := range a.Sessions {
		if a.Sessions[i] != b.Sessions[i] {
			t.Fatalf("%s: session %d differs", label, i)
		}
	}
	if a.RawLogs != b.RawLogs {
		t.Fatalf("%s: raw logs %d vs %d", label, a.RawLogs, b.RawLogs)
	}
	if !reflect.DeepEqual(a.RawLogsByNode, b.RawLogsByNode) {
		t.Fatalf("%s: per-node raw logs differ", label)
	}
	if a.AllocFails != b.AllocFails {
		t.Fatalf("%s: alloc fails %d vs %d", label, a.AllocFails, b.AllocFails)
	}
}

// run drains a campaign through Events into the local slices the
// assertions read.
func run(t testing.TB, cfg *Config) *collected {
	t.Helper()
	res := &collected{}
	for ev, err := range Events(context.Background(), cfg) {
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case stream.KindStats:
			res.RawLogs, res.RawLogsByNode, res.AllocFails = ev.Stats.RawLogs, ev.Stats.RawLogsByNode, ev.Stats.AllocFails
		case stream.KindFault:
			res.Faults = append(res.Faults, ev.Fault)
		case stream.KindSession:
			res.Sessions = append(res.Sessions, ev.Session)
		}
	}
	return res
}

func TestStreamMatchesCollectAllAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	const seed = 21
	legacy := legacyCollectAll(DefaultConfig(seed))

	for _, workers := range []int{1, 8} {
		cfg := DefaultConfig(seed)
		cfg.Workers = workers
		assertSameResult(t, "legacy vs streamed", legacy, run(t, cfg))
	}
}

func TestStreamEmitsCanonicalOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	cfg := DefaultConfig(9)
	cfg.Workers = 8
	var (
		prevFault   *extract.Fault
		prevSession *eventlog.Session
		faults      int
		sessions    int
		st          *stream.Stats
	)
	for ev, err := range Events(context.Background(), cfg) {
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case stream.KindStats:
			st = ev.Stats
		case stream.KindFault:
			f := ev.Fault
			if prevFault != nil && extract.Compare(prevFault, &f) >= 0 {
				t.Fatalf("fault %d out of order: %+v then %+v", faults, *prevFault, f)
			}
			prevFault = &f
			faults++
		case stream.KindSession:
			s := ev.Session
			if prevSession != nil && eventlog.CompareSessions(prevSession, &s) >= 0 {
				t.Fatalf("session %d out of order", sessions)
			}
			prevSession = &s
			sessions++
		}
	}
	if faults == 0 || sessions == 0 {
		t.Fatal("stream delivered nothing")
	}
	if faults != st.Faults || sessions != st.Sessions {
		t.Fatalf("stats (%d, %d) disagree with delivery (%d, %d)",
			st.Faults, st.Sessions, faults, sessions)
	}
	if st.RawLogs == 0 || len(st.RawLogsByNode) == 0 || st.AllocFails == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

// TestStreamBeginPrecedesDelivery: the stats prologue arrives before the
// first delivery and announces exactly the faults and sessions that
// follow.
func TestStreamBeginPrecedesDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	var announced *stream.Stats
	faults, sessions := 0, 0
	for ev, err := range Events(context.Background(), DefaultConfig(4)) {
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case stream.KindStats:
			if faults+sessions != 0 {
				t.Fatal("prologue after first delivery")
			}
			announced = ev.Stats
		case stream.KindFault:
			faults++
		case stream.KindSession:
			sessions++
		}
	}
	if announced == nil || announced.Faults != faults || announced.Sessions != sessions || sessions == 0 {
		t.Fatalf("prologue announced %+v, delivered %d faults and %d sessions", announced, faults, sessions)
	}
}
