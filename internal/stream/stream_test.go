package stream

import (
	"context"
	"slices"
	"sort"
	"testing"

	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/timebase"
)

// --- deterministic stream synthesis ---
// A tiny LCG keyed by an explicit seed keeps every synthesized dataset
// reproducible; streams are sorted per-stream (the Deliver precondition)
// and deliberately share keys across streams to exercise the merge's
// stream-index tiebreak.

type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 11
}

func synthFaultStreams(seed uint64, streams, perStream int) [][]extract.Fault {
	r := lcg(seed + 1)
	out := make([][]extract.Fault, streams)
	for s := range out {
		fs := make([]extract.Fault, perStream)
		for i := range fs {
			run := extract.RawRun{
				Node:     cluster.NodeID{Blade: int(r.next()%40) + 1, SoC: int(r.next()%12) + 1},
				Addr:     dram.Addr(r.next() % 1024), // small space → frequent ties
				FirstAt:  timebase.T(r.next() % 512),
				Logs:     int(r.next()%9) + 1,
				Expected: uint32(r.next()),
				Actual:   uint32(r.next()),
			}
			run.LastAt = run.FirstAt + timebase.T(r.next()%64)
			fs[i] = extract.Classify(run)
		}
		extract.SortFaults(fs)
		out[s] = fs
	}
	return out
}

func synthSessionStreams(seed uint64, streams, perStream int) [][]eventlog.Session {
	r := lcg(seed + 2)
	out := make([][]eventlog.Session, streams)
	for s := range out {
		ss := make([]eventlog.Session, perStream)
		for i := range ss {
			from := timebase.T(r.next() % 512)
			ss[i] = eventlog.Session{
				Host:       cluster.NodeID{Blade: int(r.next()%40) + 1, SoC: int(r.next()%12) + 1},
				From:       from,
				To:         from + timebase.T(r.next()%3600),
				AllocBytes: int64(r.next() % (3 << 30)),
				Truncated:  r.next()%8 == 0,
			}
		}
		sortSessions(ss)
		out[s] = ss
	}
	return out
}

func sortSessions(ss []eventlog.Session) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && eventlog.CompareSessions(&ss[j-1], &ss[j]) > 0; j-- {
			ss[j-1], ss[j] = ss[j], ss[j-1]
		}
	}
}

// deliverUnbatched is the reference delivery Deliver must match exactly:
// it flattens the streams in stream order and stable-sorts them under the
// canonical comparators — no k-way merge, no block layer; stability keeps
// equal elements in stream-index order, the merge's tiebreak — then
// yields one event at a time with the same per-delivery cancellation
// check and yield-false handling.
func deliverUnbatched(ctx context.Context, yield func(Event, error) bool,
	st *Stats, faultStreams [][]extract.Fault, sessionStreams [][]eventlog.Session) {
	if !yield(StatsEvent(st), nil) {
		return
	}
	faults := slices.Concat(faultStreams...)
	sort.SliceStable(faults, func(i, j int) bool { return extract.Compare(&faults[i], &faults[j]) < 0 })
	sessions := slices.Concat(sessionStreams...)
	sort.SliceStable(sessions, func(i, j int) bool { return eventlog.CompareSessions(&sessions[i], &sessions[j]) < 0 })
	emit := func(ev Event) bool {
		select {
		case <-ctx.Done():
			yield(Event{}, ctx.Err())
			return false
		default:
		}
		return yield(ev, nil)
	}
	for _, f := range faults {
		if !emit(FaultEvent(f)) {
			return
		}
	}
	for _, s := range sessions {
		if !emit(SessionEvent(s)) {
			return
		}
	}
}

// delivery is one recorded yield.
type delivery struct {
	ev  Event
	err error
}

func record(deliver func(yield func(Event, error) bool)) []delivery {
	var got []delivery
	deliver(func(ev Event, err error) bool {
		got = append(got, delivery{ev, err})
		return true
	})
	return got
}

func assertSameDeliveries(t *testing.T, want, got []delivery) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("delivery counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if (w.err == nil) != (g.err == nil) {
			t.Fatalf("delivery %d: error %v vs %v", i, w.err, g.err)
		}
		if w.ev.Kind != g.ev.Kind {
			t.Fatalf("delivery %d: kind %v vs %v", i, w.ev.Kind, g.ev.Kind)
		}
		switch w.ev.Kind {
		case KindFault:
			if w.ev.Fault != g.ev.Fault {
				t.Fatalf("delivery %d: fault %+v vs %+v", i, w.ev.Fault, g.ev.Fault)
			}
		case KindSession:
			if w.ev.Session != g.ev.Session {
				t.Fatalf("delivery %d: session %+v vs %+v", i, w.ev.Session, g.ev.Session)
			}
		}
	}
}

// TestDeliverMatchesUnbatched: Deliver produces the exact delivery
// sequence of the element-wise reference, across stream shapes from empty
// to heavily tied and across kway.Each's 512-element block boundaries.
func TestDeliverMatchesUnbatched(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name               string
		streams, perStream int
	}{
		{"empty", 0, 0},
		{"one-element", 1, 1},
		{"single-stream", 1, 300},
		{"many-small", 16, 7},
		{"block-boundary", 2, 512}, // fault merge ends exactly on a block
		{"multi-block", 4, 549},    // several full blocks + partial
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := &Stats{Faults: tc.streams * tc.perStream, Sessions: tc.streams * tc.perStream}
			faults := synthFaultStreams(77, tc.streams, tc.perStream)
			sessions := synthSessionStreams(99, tc.streams, tc.perStream)
			want := record(func(y func(Event, error) bool) { deliverUnbatched(ctx, y, st, faults, sessions) })
			got := record(func(y func(Event, error) bool) { Deliver(ctx, y, st, faults, sessions) })
			assertSameDeliveries(t, want, got)
		})
	}
}

// TestDeliverConsumerBreak: a false yield, mid-block or on a block
// boundary, stops everything.
func TestDeliverConsumerBreak(t *testing.T) {
	st := &Stats{}
	faults := synthFaultStreams(8, 4, 200)
	sessions := synthSessionStreams(9, 4, 200)
	for _, stop := range []int{0, 1, 50, 512, 513, 799} {
		n := 0
		Deliver(context.Background(), func(ev Event, err error) bool {
			n++
			return n <= stop
		}, st, faults, sessions)
		if n != stop+1 {
			t.Fatalf("stop=%d: %d deliveries after a false yield", stop, n)
		}
	}
}

// TestDeliverCancelMidBatch: cancelling while a block is being walked must
// deliver nothing further from that block — the consumer sees exactly the
// pre-cancel prefix and one final (zero, ctx.Err()) pair.
func TestDeliverCancelMidBatch(t *testing.T) {
	st := &Stats{}
	faults := synthFaultStreams(3, 4, 300)
	sessions := synthSessionStreams(4, 4, 300)
	full := record(func(y func(Event, error) bool) {
		Deliver(context.Background(), y, st, faults, sessions)
	})

	for _, after := range []int{1, 17, 511, 512, 517} {
		ctx, cancel := context.WithCancel(context.Background())
		var got []delivery
		Deliver(ctx, func(ev Event, err error) bool {
			got = append(got, delivery{ev, err})
			if len(got) == after {
				cancel() // mid-batch: the block walk sees done on its next event
			}
			return true
		}, st, faults, sessions)
		cancel()

		if len(got) != after+1 {
			t.Fatalf("after=%d: %d deliveries, want prefix plus the error pair", after, len(got))
		}
		last := got[len(got)-1]
		if last.err != context.Canceled || last.ev != (Event{}) {
			t.Fatalf("after=%d: final delivery (%+v, %v), want (zero, context.Canceled)", after, last.ev, last.err)
		}
		assertSameDeliveries(t, full[:after], got[:after])
	}
}

// TestDeliverAllocBudget: delivering thousands of events must cost only
// the two merges' set-up — each a loser tree, its cursors and one typed
// block — so the per-event budget is zero.
func TestDeliverAllocBudget(t *testing.T) {
	ctx := context.Background()
	st := &Stats{}
	faults := synthFaultStreams(11, 8, 1024)
	sessions := synthSessionStreams(12, 8, 1024)
	events := 1 + 2*8*1024
	drain := func() {
		n := 0
		Deliver(ctx, func(ev Event, err error) bool {
			if err != nil {
				t.Fatal(err)
			}
			n++
			return true
		}, st, faults, sessions)
		if n != events {
			t.Fatalf("delivered %d events, want %d", n, events)
		}
	}
	allocs := testing.AllocsPerRun(5, drain)
	// Two merges' set-up is six allocations; 16k+ events must not show
	// up.
	if allocs > 8 {
		t.Fatalf("Deliver allocated %.0f times for %d events, budget 8 total", allocs, events)
	}
}

// TestMergeKeysCoarsenComparators: Deliver's merges order by the leading
// key and call the full comparator only when two keys are equal, which
// reproduces the comparator's order only if key(a) < key(b) implies
// cmp(a, b) < 0. Every ordered pair of a synthetic dataset, whose
// timestamps lie in 0–511 so that keys tie densely, must satisfy it.
func TestMergeKeysCoarsenComparators(t *testing.T) {
	faults := slices.Concat(synthFaultStreams(21, 8, 128)...)
	checkKeyCoarsens(t, faults, extract.Key, extract.Compare)
	sessions := slices.Concat(synthSessionStreams(22, 8, 128)...)
	checkKeyCoarsens(t, sessions, eventlog.SessionKey, eventlog.CompareSessions)
}

// checkKeyCoarsens checks key(a) < key(b) ⇒ cmp(a, b) < 0 on every ordered
// pair of xs, and that some distinct elements tie on key, so the check
// is not vacuous.
func checkKeyCoarsens[T any](t *testing.T, xs []T, key func(*T) int64, cmp func(a, b *T) int) {
	t.Helper()
	ties := 0
	for i := range xs {
		for j := range xs {
			a, b := &xs[i], &xs[j]
			switch ka, kb := key(a), key(b); {
			case ka < kb:
				if cmp(a, b) >= 0 {
					t.Fatalf("key %d < %d but cmp = %d:\n%+v\n%+v", ka, kb, cmp(a, b), *a, *b)
				}
			case ka == kb && i != j:
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatalf("no key ties among %d elements", len(xs))
	}
}
