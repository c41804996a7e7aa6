package logstore

import (
	"sync"
	"testing"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

// TestFDCapEviction interleaves appends across many more nodes than the
// descriptor budget allows: eviction + O_APPEND reopen must lose nothing.
func TestFDCapEviction(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetMaxOpenFiles(3)

	const nodes = 20
	const rounds = 5
	for round := 0; round < rounds; round++ {
		for n := 0; n < nodes; n++ {
			host := cluster.NodeID{Blade: n/15 + 1, SoC: n%15 + 1}
			rec := eventlog.Record{
				Kind: eventlog.KindStart,
				At:   timebase.T(round*1000 + n),
				Host: host, AllocBytes: 1 << 30, TempC: thermal.NoReading,
			}
			if err := store.Append(rec); err != nil {
				t.Fatal(err)
			}
			rec.Kind = eventlog.KindEnd
			rec.At += 100
			rec.AllocBytes = 0
			if err := store.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if store.NodeCount() != nodes {
		t.Fatalf("distinct nodes %d, want %d", store.NodeCount(), nodes)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	if files, err := ListNodeFiles(dir); err != nil || len(files) != nodes {
		t.Fatalf("files on disk for %d nodes, want %d (%v)", len(files), nodes, err)
	}
	if _, sessions, _ := collectStream(t, dir, 0); len(sessions) != nodes*rounds {
		t.Fatalf("sessions %d, want %d (eviction lost records)", len(sessions), nodes*rounds)
	}
}

// TestEvictionIsLRU drives the hot/cold pattern the merge-ordered append
// stream produces: a few nodes appended on every round (hot) plus a drip
// of nodes touched exactly once (cold). LRU must sacrifice only the cold
// files, so no file is ever reopened. The old policy evicted an arbitrary
// map entry, which regularly closed a hot file mid-burst.
func TestEvictionIsLRU(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetMaxOpenFiles(4)

	hot := []cluster.NodeID{{Blade: 1, SoC: 1}, {Blade: 1, SoC: 2}, {Blade: 1, SoC: 3}}
	rec := func(host cluster.NodeID, at int64) eventlog.Record {
		return eventlog.Record{Kind: eventlog.KindStart, At: timebase.T(at),
			Host: host, AllocBytes: 1 << 30, TempC: thermal.NoReading}
	}
	at := int64(0)
	for round := 0; round < 50; round++ {
		for _, h := range hot {
			at++
			if err := store.Append(rec(h, at)); err != nil {
				t.Fatal(err)
			}
		}
		cold := cluster.NodeID{Blade: 2 + round/10, SoC: round%10 + 1}
		at++
		if err := store.Append(rec(cold, at)); err != nil {
			t.Fatal(err)
		}
	}
	if n := store.Reopens(); n != 0 {
		t.Fatalf("reopens %d, want 0: LRU must never evict a hot file", n)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenCountUnderRoundRobin pins the deterministic worst case: pure
// round-robin over more nodes than the budget misses on every post-warmup
// append, no more and no less. The exact count also proves eviction no
// longer depends on map iteration order.
func TestReopenCountUnderRoundRobin(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetMaxOpenFiles(5)

	const nodes = 20
	const rounds = 4
	at := int64(0)
	for round := 0; round < rounds; round++ {
		for n := 0; n < nodes; n++ {
			at++
			host := cluster.NodeID{Blade: n/15 + 1, SoC: n%15 + 1}
			rec := eventlog.Record{Kind: eventlog.KindStart, At: timebase.T(at),
				Host: host, AllocBytes: 1 << 30, TempC: thermal.NoReading}
			if err := store.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Round 0 opens every file for the first time (not a reopen); each
	// later round reopens all 20 — the access pattern is LRU's worst case,
	// but the count is exact and stable.
	if want, got := nodes*(rounds-1), store.Reopens(); got != want {
		t.Fatalf("reopens %d, want %d", got, want)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if _, sessions, _ := collectStream(t, dir, 0); len(sessions) != nodes*rounds {
		t.Fatalf("sessions %d, want %d (eviction lost records)", len(sessions), nodes*rounds)
	}
}

func TestSetMaxOpenFilesFloor(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetMaxOpenFiles(-5)
	if got := store.budget.Cap(); got != 1 {
		t.Fatalf("floor not applied: %d", got)
	}
}

// TestStoreConcurrentAppendCounters hammers one Store from many
// goroutines — each owning its own node so per-node time order holds —
// while two more poll Reopens and NodeCount. Before the store grew its
// mutex, the writer cache, the seen set and the LRU clock were all
// unsynchronized; under -race this test is the regression proof, and the
// tight 2-descriptor budget keeps eviction and reopen accounting in the
// contended path the whole time.
func TestStoreConcurrentAppendCounters(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetMaxOpenFiles(2)

	const writers = 8
	const perWriter = 50
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for i := 0; i < 2; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = store.Reopens()
					_ = store.NodeCount()
				}
			}
		}()
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			host := cluster.NodeID{Blade: w + 1, SoC: 1}
			for i := 0; i < perWriter; i++ {
				rec := eventlog.Record{
					Kind: eventlog.KindStart, At: timebase.T(i * 10),
					Host: host, AllocBytes: 1 << 30, TempC: thermal.NoReading,
				}
				if err := store.Append(rec); err != nil {
					errs <- err
					return
				}
				rec.Kind, rec.At, rec.AllocBytes = eventlog.KindEnd, rec.At+5, 0
				if err := store.Append(rec); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pollers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	if got := store.NodeCount(); got != writers {
		t.Fatalf("NodeCount %d, want %d", got, writers)
	}
	// Every record must survive the concurrent eviction churn intact.
	_, sessions, _ := collectStream(t, dir, 0)
	if got := len(sessions); got != writers*perWriter {
		t.Fatalf("sessions %d, want %d", got, writers*perWriter)
	}
	for _, s := range sessions {
		if s.Truncated {
			t.Fatalf("truncated session %+v: interleaved write corrupted a file", s)
		}
	}
}
