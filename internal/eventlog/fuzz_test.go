package eventlog

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

// parseReference is the pre-ParseBytes implementation of Parse
// (strings.Fields + time.Parse + strconv on substrings), kept verbatim as
// the differential-fuzzing oracle, plus the duplicate-field rejection that
// ParseBytes added (the one deliberate semantic change of the rewrite).
func parseReference(line string) (Record, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Record{}, fmt.Errorf("eventlog: empty line")
	}
	var rec Record
	switch fields[0] {
	case "START":
		rec.Kind = KindStart
	case "ERROR":
		rec.Kind = KindError
	case "END":
		rec.Kind = KindEnd
	case "ALLOCFAIL":
		rec.Kind = KindAllocFail
	default:
		return Record{}, fmt.Errorf("eventlog: unknown record kind %q", fields[0])
	}
	rec.TempC = thermal.NoReading
	var sawTS, sawHost, sawLast bool
	seen := make(map[string]bool)
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Record{}, fmt.Errorf("eventlog: malformed field %q", f)
		}
		var err error
		switch k {
		case "ts":
			var t time.Time
			t, err = time.Parse(tsLayout, v)
			rec.At = timebase.FromTime(t)
			sawTS = true
		case "host":
			rec.Host, err = cluster.ParseNodeID(v)
			sawHost = true
		case "alloc":
			rec.AllocBytes, err = strconv.ParseInt(v, 10, 64)
		case "temp":
			if v != "NA" {
				rec.TempC, err = strconv.ParseFloat(v, 64)
			}
		case "vaddr":
			rec.VAddr, err = refParseHex(v)
		case "actual":
			var u uint64
			u, err = refParseHex(v)
			rec.Actual = uint32(u)
		case "expected":
			var u uint64
			u, err = refParseHex(v)
			rec.Expected = uint32(u)
		case "ppage":
			rec.PhysPage, err = refParseHex(v)
		case "last":
			var t time.Time
			t, err = time.Parse(tsLayout, v)
			rec.LastAt = timebase.FromTime(t)
			sawLast = true
		case "logs":
			var n int64
			n, err = strconv.ParseInt(v, 10, 64)
			if err == nil && n < 1 {
				err = fmt.Errorf("count must be >= 1, got %d", n)
			}
			rec.Logs = int(n)
		default:
			return Record{}, fmt.Errorf("eventlog: unknown field %q", k)
		}
		if err != nil {
			return Record{}, fmt.Errorf("eventlog: field %q: %w", f, err)
		}
		if seen[k] {
			return Record{}, fmt.Errorf("eventlog: duplicate field %q", k)
		}
		seen[k] = true
	}
	if !sawTS || !sawHost {
		return Record{}, fmt.Errorf("eventlog: record missing mandatory ts/host fields: %q", line)
	}
	if rec.Logs > 0 && !sawLast {
		rec.LastAt = rec.At
	}
	if sawLast && rec.Logs == 0 {
		rec.Logs = 1
	}
	if sawLast && rec.LastAt < rec.At {
		return Record{}, fmt.Errorf("eventlog: run ends before it starts: %q", line)
	}
	return rec, nil
}

func refParseHex(s string) (uint64, error) {
	s = strings.TrimPrefix(s, "0x")
	return strconv.ParseUint(s, 16, 64)
}

// sameRecord compares records treating NaN temperatures as equal (a
// "temp=NaN" line parses to a NaN TempC on both paths).
func sameRecord(a, b Record) bool {
	if math.IsNaN(a.TempC) && math.IsNaN(b.TempC) {
		a.TempC, b.TempC = 0, 0
	}
	return a == b
}

// FuzzParse hammers the log-line parser: it must never panic and must
// reject or round-trip — a reliability study cannot afford a log reader
// that silently mangles its input.
func FuzzParse(f *testing.F) {
	for _, rec := range sampleRecords() {
		f.Add(rec.String())
	}
	f.Add("START ts=2015-02-01T00:00:00Z host=01-01 alloc=0 temp=NA")
	f.Add("ERROR ts=2015-12-31T23:59:59Z host=72-15 vaddr=0x0 actual=0x0 expected=0x0 temp=-5.0 ppage=0x0")
	f.Add("")
	f.Add("ERROR ts= host=")
	f.Add(strings.Repeat("a=b ", 100))
	f.Fuzz(func(t *testing.T, line string) {
		rec, err := ParseBytes([]byte(line))
		if err != nil {
			return
		}
		// Anything accepted must render and re-parse stably.
		again, err := ParseBytes([]byte(rec.String()))
		if err != nil {
			t.Fatalf("accepted %q but re-parse of %q failed: %v", line, rec.String(), err)
		}
		if again.String() != rec.String() {
			t.Fatalf("canonical form unstable:\n1: %s\n2: %s", rec.String(), again.String())
		}
	})
}

// FuzzLines holds the line rule to its chunking contract. Fed in
// arbitrary chunks the way the batch loader and the follower feed it —
// append a chunk, call Lines, keep the unconsumed tail — Lines must give
// the records, line numbers and error of one call on the whole input,
// and leave over exactly the bytes after the last '\n'.
func FuzzLines(f *testing.F) {
	var text string
	for _, rec := range sampleRecords() {
		text += rec.String() + "\n"
	}
	f.Add([]byte(text), []byte{0})
	f.Add([]byte("\n\n"+text+" \t\n"+text[:40]), []byte{3, 200, 17})
	f.Add([]byte(text+"JUNK\n"+text), []byte{90, 1})
	f.Add([]byte("\r\n"+text[:len(text)-1]), []byte{})
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		type seen struct {
			recs  []Record
			lines []int
		}
		collect := func(s *seen, line *int) func(Record) bool {
			return func(r Record) bool {
				s.recs = append(s.recs, r)
				s.lines = append(s.lines, *line)
				return true
			}
		}
		var whole seen
		wholeLine := 0
		n, wholeErr := Lines(data, &wholeLine, collect(&whole, &wholeLine))

		var chunked seen
		line := 0
		var pending []byte
		var err error
		for off, c := 0, 0; off < len(data) && err == nil; c++ {
			size := 1
			if len(sizes) > 0 {
				size += int(sizes[c%len(sizes)])
			}
			end := min(off+size, len(data))
			pending = append(pending, data[off:end]...)
			off = end
			var k int
			k, err = Lines(pending, &line, collect(&chunked, &line))
			pending = pending[:copy(pending, pending[k:])]
		}

		if (err == nil) != (wholeErr == nil) || (err != nil && err.Error() != wholeErr.Error()) {
			t.Fatalf("chunked error %v, whole-input error %v", err, wholeErr)
		}
		if line != wholeLine || len(chunked.recs) != len(whole.recs) {
			t.Fatalf("chunked: %d records over %d lines; whole input: %d over %d",
				len(chunked.recs), line, len(whole.recs), wholeLine)
		}
		for i := range whole.recs {
			if !sameRecord(chunked.recs[i], whole.recs[i]) || chunked.lines[i] != whole.lines[i] {
				t.Fatalf("record %d: chunked %+v at line %d, whole input %+v at line %d",
					i, chunked.recs[i], chunked.lines[i], whole.recs[i], whole.lines[i])
			}
		}
		if wholeErr == nil {
			tail := data[bytes.LastIndexByte(data, '\n')+1:]
			if !bytes.Equal(data[n:], tail) || !bytes.Equal(pending, tail) {
				t.Fatalf("left over: whole input %q, chunked %q; want %q", data[n:], pending, tail)
			}
		}
	})
}

// FuzzRecordRoundTrip differentially fuzzes the zero-allocation fast path
// against the reference parser, and pins the canonical-form fixed point:
// for any accepted line, AppendText → ParseBytes → AppendText must
// reproduce the first rendering byte for byte.
func FuzzRecordRoundTrip(f *testing.F) {
	for _, rec := range sampleRecords() {
		f.Add(rec.String())
	}
	f.Add("ERROR ts=2015-06-14T03:12:45Z host=02-04 vaddr=0x7f2a00001234 actual=0xfffffffe expected=0xffffffff temp=41.53 ppage=0x1a2b3c last=2015-06-14T03:14:45Z logs=12")
	f.Add("START ts=2015-02-01T5:04:05.25Z host=01-01 alloc=+3221225472 temp=NA")
	f.Add("ERROR ts=2015-02-01T00:00:00Z host=01-01 temp=NaN vaddr=0XFF")
	f.Add("ERROR ts=9999-12-31T23:59:59Z host=72-15 logs=1 logs=2")
	f.Add("END ts=0000-01-01T00:00:00,123456789012Z host=01-01 temp=-1e308")
	f.Fuzz(func(t *testing.T, line string) {
		got, gotErr := ParseBytes([]byte(line))
		ref, refErr := parseReference(line)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("acceptance disagrees on %q:\nParseBytes: %v\nreference:  %v", line, gotErr, refErr)
		}
		if gotErr != nil {
			return
		}
		if !sameRecord(got, ref) {
			t.Fatalf("records disagree on %q:\nParseBytes: %+v\nreference:  %+v", line, got, ref)
		}
		first := got.AppendText(nil)
		again, err := ParseBytes(first)
		if err != nil {
			t.Fatalf("canonical form of %q rejected: %v\n%s", line, err, first)
		}
		if second := again.AppendText(nil); string(first) != string(second) {
			t.Fatalf("canonical form unstable for %q:\n1: %s\n2: %s", line, first, second)
		}
	})
}

// FuzzRecordRender drives the renderer with arbitrary field values: every
// rendered record must parse back with identity fields intact.
func FuzzRecordRender(f *testing.F) {
	f.Add(uint8(0), int64(0), 1, 1, int64(0), uint32(0), uint32(0), 0.0, uint64(0))
	f.Add(uint8(1), int64(1000), 2, 4, int64(3<<30), uint32(0xffffffff), uint32(0xffff7bff), 35.5, uint64(0x12345))
	f.Add(uint8(2), int64(999999), 72, 15, int64(1), uint32(1), uint32(2), -10.0, uint64(1))
	f.Fuzz(func(t *testing.T, kind uint8, at int64, blade, soc int, alloc int64,
		expected, actual uint32, temp float64, page uint64) {
		if at < 0 {
			at = -at
		}
		if alloc < 0 {
			alloc = -alloc
		}
		if blade < 0 {
			blade = -blade
		}
		if soc < 0 {
			soc = -soc
		}
		rec := Record{
			Kind:       Kind(kind % 4),
			At:         timebase.T(at % (400 * 86400)),
			Host:       cluster.NodeID{Blade: blade%cluster.TotalBlades + 1, SoC: soc%cluster.SoCsPerBlade + 1},
			AllocBytes: alloc,
			Expected:   expected,
			Actual:     actual,
			TempC:      temp,
			PhysPage:   page,
			VAddr:      0x7f2a_0000_0000 + (page%1000)*4,
		}
		// Normalize unrenderable temperatures to the sentinel, as the
		// thermal model does, then quantize to the renderer's precision.
		if rec.TempC < -200 || rec.TempC > 1000 || rec.TempC != rec.TempC {
			rec.TempC = thermal.NoReading
		}
		if thermal.HasReading(rec.TempC) {
			rec.TempC = float64(int(rec.TempC*10)) / 10
		}
		back, err := ParseBytes([]byte(rec.String()))
		if err != nil {
			t.Fatalf("rendered record failed to parse: %v\n%s", err, rec.String())
		}
		if back.Kind != rec.Kind || back.Host != rec.Host || back.At != rec.At {
			t.Fatalf("identity fields mangled: %+v vs %+v", back, rec)
		}
	})
}
