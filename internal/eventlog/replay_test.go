package eventlog

import (
	"strings"
	"testing"

	"unprotected/internal/cluster"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

// TestFinishStableOrder is the regression test for the map-iteration leak:
// Finish used to append still-open sessions in Go map order, so two replays
// of the same logs disagreed on the truncated-session order. Many open
// hosts, many repetitions, one acceptable order.
func TestFinishStableOrder(t *testing.T) {
	build := func() []Session {
		a := NewAccounting()
		// Open one session per host, never END any of them. Spread start
		// times so the expected order exercises both keys of the
		// comparator: (From, Host).
		for blade := 1; blade <= 10; blade++ {
			for soc := 1; soc <= 5; soc++ {
				a.Observe(Record{
					Kind:  KindStart,
					At:    timebase.T(1000 * (soc % 3)), // deliberate From ties
					Host:  cluster.NodeID{Blade: blade, SoC: soc},
					TempC: thermal.NoReading,
				})
			}
		}
		return a.Finish()
	}

	want := build()
	if len(want) != 50 {
		t.Fatalf("sessions %d, want 50", len(want))
	}
	for i := 1; i < len(want); i++ {
		if CompareSessions(&want[i-1], &want[i]) >= 0 {
			t.Fatalf("session %d out of canonical order: %+v then %+v", i, want[i-1], want[i])
		}
	}
	for trial := 0; trial < 20; trial++ {
		got := build()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: session %d differs: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestFinishSortsOnlyTheOpenTail: sessions closed by END keep their
// observation order; only the appended truncated tail is canonicalized.
func TestFinishSortsOnlyTheOpenTail(t *testing.T) {
	a := NewAccounting()
	h1 := cluster.NodeID{Blade: 9, SoC: 9}
	h2 := cluster.NodeID{Blade: 1, SoC: 1}
	// h1 closes first even though h2 sorts lower: closed order preserved.
	a.Observe(Record{Kind: KindStart, At: 100, Host: h1, TempC: thermal.NoReading})
	a.Observe(Record{Kind: KindStart, At: 50, Host: h2, TempC: thermal.NoReading})
	a.Observe(Record{Kind: KindEnd, At: 200, Host: h1, TempC: thermal.NoReading})
	a.Observe(Record{Kind: KindEnd, At: 250, Host: h2, TempC: thermal.NoReading})
	// Two still-open sessions land in the tail, canonically ordered.
	a.Observe(Record{Kind: KindStart, At: 400, Host: h1, TempC: thermal.NoReading})
	a.Observe(Record{Kind: KindStart, At: 300, Host: h2, TempC: thermal.NoReading})
	ss := a.Finish()
	if len(ss) != 4 {
		t.Fatalf("sessions %d, want 4", len(ss))
	}
	if ss[0].Host != h1 || ss[1].Host != h2 {
		t.Fatalf("closed-session order rewritten: %+v", ss[:2])
	}
	if ss[2].From != 300 || ss[3].From != 400 || !ss[2].Truncated || !ss[3].Truncated {
		t.Fatalf("open tail not canonical: %+v", ss[2:])
	}
}

// TestPreCollapsedRecordRoundTrip: ERROR lines can carry the extracted
// (last=, logs=) view and must round-trip exactly, including default
// expansion when only one of the pair is present.
func TestPreCollapsedRecordRoundTrip(t *testing.T) {
	host := cluster.NodeID{Blade: 4, SoC: 5}
	rec := Record{
		Kind: KindError, At: 5000, Host: host,
		VAddr: 0x7f2a00000100, Actual: 0xfffffffe, Expected: 0xffffffff,
		TempC: 33.4567890123, PhysPage: 0x42,
		LastAt: 9000, Logs: 17,
	}
	back, err := ParseBytes([]byte(rec.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back != rec {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", back, rec)
	}

	// logs= without last=: the run ends where it starts.
	r2, err := ParseBytes([]byte("ERROR ts=2015-03-01T00:00:00Z host=01-01 vaddr=0x0 actual=0x0 expected=0x1 temp=NA ppage=0x0 logs=3"))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Logs != 3 || r2.LastAt != r2.At {
		t.Fatalf("lone logs= not normalized: %+v", r2)
	}

	// last= without logs=: a single-record run.
	r3, err := ParseBytes([]byte("ERROR ts=2015-03-01T00:00:00Z host=01-01 vaddr=0x0 actual=0x0 expected=0x1 temp=NA ppage=0x0 last=2015-03-01T00:01:00Z"))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Logs != 1 || r3.LastAt != r3.At+60 {
		t.Fatalf("lone last= not normalized: %+v", r3)
	}

	// A raw scanner record renders without the pre-collapsed fields.
	raw := Record{Kind: KindError, At: 10, Host: host, Expected: 1, TempC: thermal.NoReading}
	if s := raw.String(); strings.Contains(s, "last=") || strings.Contains(s, "logs=") {
		t.Fatalf("raw record leaked pre-collapsed fields: %s", s)
	}

	// Rejections: zero/negative counts and runs ending before they start.
	for _, line := range []string{
		"ERROR ts=2015-03-01T00:00:00Z host=01-01 vaddr=0x0 actual=0x0 expected=0x1 temp=NA ppage=0x0 logs=0",
		"ERROR ts=2015-03-01T00:00:00Z host=01-01 vaddr=0x0 actual=0x0 expected=0x1 temp=NA ppage=0x0 logs=-2",
		"ERROR ts=2015-03-01T00:02:00Z host=01-01 vaddr=0x0 actual=0x0 expected=0x1 temp=NA ppage=0x0 last=2015-03-01T00:01:00Z",
	} {
		if _, err := ParseBytes([]byte(line)); err == nil {
			t.Fatalf("accepted malformed pre-collapsed line: %s", line)
		}
	}
}
