package campaign

import (
	"testing"

	"unprotected/internal/cluster"
	"unprotected/internal/extract"
	"unprotected/internal/timebase"
)

// smallConfig trims the fault profile to run fast while still exercising
// every source kind.
func smallConfig(seed uint64) *Config {
	cfg := DefaultConfig(seed)
	return cfg
}

func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	a := run(t, smallConfig(7))
	cfgB := smallConfig(7)
	cfgB.Workers = 2 // different parallelism must not change results
	b := run(t, cfgB)
	if len(a.Faults) != len(b.Faults) {
		t.Fatalf("fault counts differ: %d vs %d", len(a.Faults), len(b.Faults))
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("fault %d differs across parallelism", i)
		}
	}
	if a.RawLogs != b.RawLogs {
		t.Fatalf("raw logs differ: %d vs %d", a.RawLogs, b.RawLogs)
	}
	if len(a.Sessions) != len(b.Sessions) {
		t.Fatalf("session counts differ")
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	a := run(t, smallConfig(1))
	b := run(t, smallConfig(2))
	if len(a.Faults) == len(b.Faults) && a.RawLogs == b.RawLogs {
		t.Fatal("different seeds produced identical campaigns")
	}
}

func TestPaperCampaignHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	res := run(t, DefaultConfig(42))

	// §III-B magnitudes (generous windows; exact values in EXPERIMENTS.md).
	if res.RawLogs < 20e6 || res.RawLogs > 32e6 {
		t.Fatalf("raw logs %d, want ~25M", res.RawLogs)
	}
	if n := len(res.Faults); n < 45000 || n > 70000 {
		t.Fatalf("independent faults %d, want ~55k", n)
	}
	var maxRaw int64
	var worst cluster.NodeID
	for id, n := range res.RawLogsByNode {
		if n > maxRaw {
			maxRaw, worst = n, id
		}
	}
	if share := float64(maxRaw) / float64(res.RawLogs); share < 0.95 {
		t.Fatalf("worst node raw share %.2f, want >0.95", share)
	}
	if worst != DefaultConfig(42).Profile.PathologicalNode {
		t.Fatalf("worst raw node %v, want the pathological node", worst)
	}

	// The pathological node contributes no characterized faults.
	for _, f := range res.Faults {
		if f.Node == worst {
			t.Fatal("pathological node leaked into characterized faults")
		}
	}

	// Multi-bit population: 85 events, 9 over 2 bits, 7 over 3.
	multi, over2, over3 := 0, 0, 0
	for _, f := range res.Faults {
		switch n := f.BitCount(); {
		case n > 3:
			over3++
			over2++
			multi++
		case n == 3:
			over2++
			multi++
		case n == 2:
			multi++
		}
	}
	if multi < 60 || multi > 110 {
		t.Fatalf("multi-bit faults %d, want ~85", multi)
	}
	if over3 != 7 {
		t.Fatalf(">3-bit faults %d, want exactly 7 (scheduled)", over3)
	}

	// Faults are sorted and within the study window.
	for i, f := range res.Faults {
		if f.FirstAt < 0 || f.FirstAt >= timebase.T(timebase.StudySeconds) {
			t.Fatalf("fault %d outside study window: %v", i, f.FirstAt)
		}
		if i > 0 && res.Faults[i-1].FirstAt > f.FirstAt {
			t.Fatal("faults not sorted by time")
		}
	}

	// Simultaneity magnitude (§III-C).
	st := extract.Simultaneity(extract.Groups(res.Faults))
	if st.FaultsInGroups < 18000 || st.FaultsInGroups > 40000 {
		t.Fatalf("simultaneous faults %d, want ~26k", st.FaultsInGroups)
	}
}

func TestSessionsRespectRoster(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	cfg := DefaultConfig(3)
	res := run(t, cfg)
	for _, s := range res.Sessions {
		node := cfg.Topo.Node(s.Host)
		if node.Role != cluster.Scanned {
			t.Fatalf("session on non-scanned node %v (%v)", s.Host, node.Role)
		}
	}
	// Hours per node: no node exceeds the study duration.
	hours := make(map[cluster.NodeID]float64)
	for _, s := range res.Sessions {
		hours[s.Host] += s.Duration().Hours()
	}
	limit := float64(timebase.StudySeconds) / 3600
	for id, h := range hours {
		if h > limit {
			t.Fatalf("node %v monitored %v h > study length", id, h)
		}
	}
}

func TestSharedModelsExposed(t *testing.T) {
	if Scrambler() == nil || Polarity() == nil {
		t.Fatal("shared models missing")
	}
	if FluxFor(DefaultConfig(1).Site) == nil {
		t.Fatal("flux constructor")
	}
}
