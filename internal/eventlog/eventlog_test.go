package eventlog

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: KindStart, At: 100, Host: cluster.NodeID{Blade: 2, SoC: 4}, AllocBytes: 3 << 30, TempC: 31.5},
		{Kind: KindError, At: 160, Host: cluster.NodeID{Blade: 2, SoC: 4}, VAddr: 0x7f2a00001234,
			Actual: 0xffff7bff, Expected: 0xffffffff, TempC: 32.1, PhysPage: 0x12345},
		{Kind: KindEnd, At: 3700, Host: cluster.NodeID{Blade: 2, SoC: 4}, TempC: 30.9},
		{Kind: KindAllocFail, At: 4000, Host: cluster.NodeID{Blade: 5, SoC: 1}, TempC: thermal.NoReading},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		line := rec.String()
		back, err := ParseBytes([]byte(line))
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if back != rec {
			t.Fatalf("round trip:\n in=%+v\nout=%+v\nline=%q", rec, back, line)
		}
	}
}

func TestRecordFormat(t *testing.T) {
	rec := sampleRecords()[1]
	line := rec.String()
	for _, want := range []string{"ERROR", "host=02-04", "vaddr=0x7f2a00001234",
		"actual=0xffff7bff", "expected=0xffffffff", "temp=32.1", "ppage=0x12345"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
	noTemp := Record{Kind: KindEnd, At: 5, Host: cluster.NodeID{Blade: 1, SoC: 2}, TempC: thermal.NoReading}
	if !strings.Contains(noTemp.String(), "temp=NA") {
		t.Fatalf("missing NA temp: %q", noTemp.String())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(at uint32, blade, soc uint8, vaddr uint64, actual, expected uint32, temp int16) bool {
		rec := Record{
			Kind:     KindError,
			At:       timebase.T(at % uint32(timebase.StudySeconds)),
			Host:     cluster.NodeID{Blade: int(blade)%cluster.TotalBlades + 1, SoC: int(soc)%cluster.SoCsPerBlade + 1},
			VAddr:    vaddr,
			Actual:   actual,
			Expected: expected,
			TempC:    float64(temp%80) + 0.5,
		}
		if rec.TempC < -270 {
			rec.TempC = thermal.NoReading
		}
		back, err := ParseBytes([]byte(rec.String()))
		return err == nil && back == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"BOGUS ts=2015-02-01T00:00:00Z host=01-01",
		"START ts=notatime host=01-01 alloc=1 temp=NA",
		"START ts=2015-02-01T00:00:00Z host=zz alloc=1 temp=NA",
		"START ts=2015-02-01T00:00:00Z host=01-01 alloc=xyz temp=NA",
		"ERROR ts=2015-02-01T00:00:00Z host=01-01 unknownfield=3",
		"ERROR ts=2015-02-01T00:00:00Z host=01-01 malformed",
	}
	for _, line := range bad {
		if _, err := ParseBytes([]byte(line)); err == nil {
			t.Errorf("ParseBytes(%q) accepted", line)
		}
	}
}

func TestParseRejectsDuplicateFields(t *testing.T) {
	// Every duplicated key must be rejected — the last occurrence used to
	// win silently, which let a corrupted log shadow a real observation.
	lines := []string{
		"START ts=2015-02-01T00:00:00Z ts=2015-02-01T00:00:01Z host=01-01 alloc=1 temp=NA",
		"START ts=2015-02-01T00:00:00Z host=01-01 host=01-02 alloc=1 temp=NA",
		"START ts=2015-02-01T00:00:00Z host=01-01 alloc=1 alloc=2 temp=NA",
		"ERROR ts=2015-02-01T00:00:00Z host=01-01 temp=30 temp=31",
		"ERROR ts=2015-02-01T00:00:00Z host=01-01 vaddr=0x1 vaddr=0x2",
		"ERROR ts=2015-02-01T00:00:00Z host=01-01 logs=1 logs=1",
	}
	for _, line := range lines {
		if _, err := ParseBytes([]byte(line)); err == nil || !strings.Contains(err.Error(), "duplicate field") {
			t.Errorf("ParseBytes(%q) = %v, want duplicate-field error", line, err)
		}
	}
}

// TestParseBytesZeroAlloc is the allocation-regression gate for the replay
// hot path: steady-state (well-formed) lines must parse without touching
// the heap, including the worst case — a fully loaded pre-collapsed ERROR
// line whose temperature needs all 17 significant digits.
func TestParseBytesZeroAlloc(t *testing.T) {
	lines := [][]byte{
		[]byte("ERROR ts=2015-06-14T03:12:45Z host=02-04 vaddr=0x7f2a00001234 actual=0xfffffffe expected=0xffffffff temp=41.53 ppage=0x1a2b3c last=2015-06-14T03:14:45Z logs=12"),
		[]byte("ERROR ts=2015-06-14T03:12:45Z host=02-04 vaddr=0x7f2a00001234 actual=0xfffffffe expected=0xffffffff temp=33.517383129784076 ppage=0x1a2b3c"),
		[]byte("START ts=2015-02-01T00:00:00Z host=01-01 alloc=3221225472 temp=NA"),
		[]byte("END ts=2015-02-01T00:10:00Z host=01-01 temp=31.5"),
	}
	for _, line := range lines {
		line := line
		avg := testing.AllocsPerRun(200, func() {
			if _, err := ParseBytes(line); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("ParseBytes(%q) allocates %v times per run, want 0", line, avg)
		}
	}
}

// TestAppendTextZeroAlloc pins the exporter's side of the bargain: with a
// pre-grown buffer, rendering any record kind must not allocate either.
func TestAppendTextZeroAlloc(t *testing.T) {
	recs := sampleRecords()
	recs = append(recs, Record{
		Kind: KindError, At: 160, Host: cluster.NodeID{Blade: 2, SoC: 4},
		VAddr: 0x7f2a00001234, Actual: 0xfffffffe, Expected: 0xffffffff,
		TempC: 33.517383129784076, PhysPage: 0x12345, LastAt: 520, Logs: 9,
	})
	buf := make([]byte, 0, 256)
	for _, rec := range recs {
		rec := rec
		avg := testing.AllocsPerRun(200, func() { buf = rec.AppendText(buf[:0]) })
		if avg != 0 {
			t.Errorf("AppendText(%v) allocates %v times per run, want 0", rec.Kind, avg)
		}
	}
}

// readLines runs Lines over data in one call and collects its records.
func readLines(data []byte) ([]Record, error) {
	var out []Record
	line := 0
	_, err := Lines(data, &line, func(r Record) bool {
		out = append(out, r)
		return true
	})
	return out, err
}

func TestWriterReader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := sampleRecords()
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(recs) {
		t.Fatalf("count %d", w.Count())
	}
	got, err := readLines(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestReaderSkipsBlanksReportsPosition: Lines skips blank lines but
// counts them, so a malformed line fails with its line number in the
// file, and consumed then includes the failing line. A visit that
// returns false stops Lines after its line, with a nil error.
func TestReaderSkipsBlanksReportsPosition(t *testing.T) {
	first := sampleRecords()[0].String()
	input := []byte("\n" + first + "\n \t\n" + "JUNK line\n" + first + "\n")
	recs, line := 0, 0
	n, err := Lines(input, &line, func(Record) bool {
		recs++
		return true
	})
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("want positioned error, got %v", err)
	}
	if recs != 1 || line != 4 || n != len(input)-len(first)-1 {
		t.Fatalf("records %d, line %d, consumed %d; want 1, 4, %d", recs, line, n, len(input)-len(first)-1)
	}
	line = 0
	n, err = Lines(input, &line, func(Record) bool { return false })
	if err != nil || line != 2 || n != 1+len(first)+1 {
		t.Fatalf("stopped visit: consumed %d, line %d, %v; want %d, 2, nil", n, line, err, 1+len(first)+1)
	}
}

// TestLinesLineLimit: a line of MaxLine bytes, '\n' included, is a
// record; one byte more fails with bufio.ErrTooLong and the line's
// number, whether its '\n' is in data yet or not.
func TestLinesLineLimit(t *testing.T) {
	rec := sampleRecords()[1].String()
	fits := rec + strings.Repeat(" ", MaxLine-1-len(rec)) + "\n"
	if recs, err := readLines([]byte(fits + fits)); err != nil || len(recs) != 2 {
		t.Fatalf("lines of MaxLine bytes: %d records, %v; want 2", len(recs), err)
	}
	over := " " + fits
	for _, data := range []string{fits + over, fits + over[:MaxLine]} {
		line := 0
		_, err := Lines([]byte(data), &line, func(Record) bool { return true })
		if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("over-long line: %v, want ErrTooLong at line 2", err)
		}
	}
}

func TestAccountingSessions(t *testing.T) {
	host := cluster.NodeID{Blade: 3, SoC: 3}
	acc := NewAccounting()
	// Normal session: 2 hours.
	acc.Observe(Record{Kind: KindStart, At: 0, Host: host, AllocBytes: 3 << 30})
	acc.Observe(Record{Kind: KindEnd, At: 7200, Host: host})
	// Hard reboot: START then START — first session contributes 0 hours.
	acc.Observe(Record{Kind: KindStart, At: 10000, Host: host, AllocBytes: 3 << 30})
	acc.Observe(Record{Kind: KindStart, At: 20000, Host: host, AllocBytes: 2 << 30})
	acc.Observe(Record{Kind: KindEnd, At: 23600, Host: host})
	sessions := acc.Finish()
	if len(sessions) != 3 {
		t.Fatalf("sessions = %d", len(sessions))
	}
	// 2h, then 0h for the session the second START truncated, then 1h.
	for i, want := range []struct {
		dur       time.Duration
		tbh       float64
		truncated bool
	}{
		{2 * time.Hour, 3.0 / 1024 * 2, false},
		{0, 0, true},
		{time.Hour, 2.0 / 1024 * 1, false},
	} {
		s := sessions[i]
		if s.Truncated != want.truncated || s.Duration() != want.dur {
			t.Fatalf("session %d: truncated %v, duration %v; want %v, %v (a truncated session must count 0)",
				i, s.Truncated, s.Duration(), want.truncated, want.dur)
		}
		if diff := float64(s.TBh()) - want.tbh; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("session %d: tbh = %v, want %v", i, s.TBh(), want.tbh)
		}
	}
}

func TestAccountingOpenSessionTruncated(t *testing.T) {
	host := cluster.NodeID{Blade: 4, SoC: 4}
	acc := NewAccounting()
	acc.Observe(Record{Kind: KindStart, At: 0, Host: host, AllocBytes: 1 << 30})
	sessions := acc.Finish()
	if len(sessions) != 1 || !sessions[0].Truncated {
		t.Fatalf("open session should be truncated: %+v", sessions)
	}
	if sessions[0].Duration() != 0 {
		t.Fatal("truncated session must contribute zero time")
	}
}

func TestAccountingEndWithoutStart(t *testing.T) {
	acc := NewAccounting()
	acc.Observe(Record{Kind: KindEnd, At: 100, Host: cluster.NodeID{Blade: 1, SoC: 2}})
	if sessions := acc.Finish(); len(sessions) != 0 {
		t.Fatalf("dangling END produced sessions: %v", sessions)
	}
}

// TestAccountingObserveZeroAlloc: the accounting holds its open sessions
// by value, so once its map and Sessions have room, a START/END pair
// allocates nothing. The replay loader runs Observe on every session of
// every node file.
func TestAccountingObserveZeroAlloc(t *testing.T) {
	host := cluster.NodeID{Blade: 3, SoC: 3}
	acc := NewAccounting()
	acc.Sessions = make([]Session, 0, 512)
	at := timebase.T(0)
	pair := func() {
		acc.Observe(Record{Kind: KindStart, At: at, Host: host, AllocBytes: 3 << 30})
		acc.Observe(Record{Kind: KindEnd, At: at + 3600, Host: host})
		at += 7200
	}
	pair()
	if avg := testing.AllocsPerRun(200, pair); avg != 0 {
		t.Fatalf("a START/END pair allocated %.1f times, want 0", avg)
	}
	if len(acc.Sessions) != 202 || acc.Open() != 0 {
		t.Fatalf("accounting closed %d sessions with %d open, want 202 and 0", len(acc.Sessions), acc.Open())
	}
}

func TestSessionTBh(t *testing.T) {
	s := Session{Host: cluster.NodeID{Blade: 1, SoC: 2}, From: 0, To: timebase.T(3600), AllocBytes: 1 << 40}
	if s.TBh() != 1 {
		t.Fatalf("TBh = %v", s.TBh())
	}
	if s.Duration() != time.Hour {
		t.Fatalf("duration %v", s.Duration())
	}
}

// TestReadAllError: a malformed line fails, empty input holds no
// record, and an unterminated line is no record and no error — Lines
// leaves it unconsumed, however it ends.
func TestReadAllError(t *testing.T) {
	if _, err := readLines([]byte("GARBAGE\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if recs, err := readLines(nil); err != nil || len(recs) != 0 {
		t.Fatalf("empty input: %v %v", recs, err)
	}
	whole := sampleRecords()[1].String() + "\n"
	for _, data := range []string{"GARBAGE", whole[:len(whole)-1], whole + whole[:len(whole)/2]} {
		line := 0
		n, err := Lines([]byte(data), &line, func(Record) bool { return true })
		if err != nil || n != strings.LastIndexByte(data, '\n')+1 {
			t.Fatalf("%q: consumed %d, %v; want %d, nil", data, n, err, strings.LastIndexByte(data, '\n')+1)
		}
	}
}
