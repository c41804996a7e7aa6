// Package eventlog defines the memory scanner's log records and their text
// format, mirroring §II-B of the paper:
//
//   - START: timestamp, allocated bytes, host name, node temperature
//   - ERROR: timestamp, host, virtual address, actual value, expected
//     value, temperature, physical page address
//   - END: timestamp, host, temperature
//   - ALLOCFAIL: timestamp, host (kept in a separate file on the real
//     system; here a record kind)
//
// It also implements the paper's conservative node-hour accounting: a START
// followed by another START (hard reboot, END lost) contributes zero
// monitored hours.
package eventlog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"unprotected/internal/cluster"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

// Kind discriminates log records.
type Kind uint8

const (
	KindStart Kind = iota
	KindError
	KindEnd
	KindAllocFail
)

func (k Kind) String() string {
	switch k {
	case KindStart:
		return "START"
	case KindError:
		return "ERROR"
	case KindEnd:
		return "END"
	case KindAllocFail:
		return "ALLOCFAIL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one scanner log entry. Unused fields are zero; TempC is
// thermal.NoReading when the node had no temperature telemetry.
type Record struct {
	Kind       Kind
	At         timebase.T
	Host       cluster.NodeID
	AllocBytes int64   // START only
	TempC      float64 // START, ERROR, END
	VAddr      uint64  // ERROR only
	Actual     uint32  // ERROR only
	Expected   uint32  // ERROR only
	PhysPage   uint64  // ERROR only

	// LastAt and Logs carry the pre-collapsed (§II-C extracted) view on
	// ERROR records: Logs > 0 marks the line as one already-extracted
	// independent fault standing for Logs raw scanner records observed
	// from At through LastAt. The live scanner never sets them (each of
	// its ERROR lines is one raw observation, Logs == 0); exporters write
	// them so a replayed directory reconstructs runs byte-identically
	// instead of re-applying the collapse heuristics to collapsed data.
	LastAt timebase.T // ERROR only, pre-collapsed records
	Logs   int        // ERROR only; 0 = raw record, >0 = pre-collapsed
}

// tsLayout is the timestamp format in log files.
const tsLayout = "2006-01-02T15:04:05Z"

// AppendText renders the record in the canonical line format (no trailing
// newline) and returns the extended buffer.
func (r Record) AppendText(b []byte) []byte {
	b = append(b, r.Kind.String()...)
	b = append(b, " ts="...)
	b = appendTimestamp(b, r.At)
	b = append(b, " host="...)
	b = r.Host.AppendText(b)
	switch r.Kind {
	case KindStart:
		b = append(b, " alloc="...)
		b = strconv.AppendInt(b, r.AllocBytes, 10)
		b = appendTemp(b, r.TempC)
	case KindError:
		b = append(b, " vaddr=0x"...)
		b = strconv.AppendUint(b, r.VAddr, 16)
		b = append(b, " actual=0x"...)
		b = appendHex32(b, r.Actual)
		b = append(b, " expected=0x"...)
		b = appendHex32(b, r.Expected)
		b = appendTemp(b, r.TempC)
		b = append(b, " ppage=0x"...)
		b = strconv.AppendUint(b, r.PhysPage, 16)
		if r.Logs > 0 {
			b = append(b, " last="...)
			b = appendTimestamp(b, r.LastAt)
			b = append(b, " logs="...)
			b = strconv.AppendInt(b, int64(r.Logs), 10)
		}
	case KindEnd:
		b = appendTemp(b, r.TempC)
	}
	return b
}

func appendHex32(b []byte, v uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, digits[(v>>uint(shift))&0xf])
	}
	return b
}

func appendTemp(b []byte, t float64) []byte {
	b = append(b, " temp="...)
	if !thermal.HasReading(t) {
		return append(b, "NA"...)
	}
	// Shortest representation that parses back to the exact same float64:
	// replay must reconstruct TempC bit-for-bit, since the canonical fault
	// order (extract.Compare) includes it as its final tiebreak.
	return strconv.AppendFloat(b, t, 'f', -1, 64)
}

// String renders the canonical line.
func (r Record) String() string { return string(r.AppendText(nil)) }

// Field-presence bits: one per known key, for mandatory-field and
// duplicate-field checks without a map.
const (
	fieldTS = 1 << iota
	fieldHost
	fieldAlloc
	fieldTemp
	fieldVAddr
	fieldActual
	fieldExpected
	fieldPPage
	fieldLast
	fieldLogs
)

// ParseBytes parses one canonical log line from a raw byte slice. It is the
// replay hot path: for well-formed input it performs zero heap allocations —
// fields are scanned in place (no strings.Fields), timestamps go through the
// fixed-layout codec (no time.Parse) and numbers through byte-slice parsers.
// The slice is neither modified nor retained, so callers may hand it a
// reused read buffer, as Lines does. Only the error paths allocate, and
// every error message copies what it needs out of the buffer.
//
// A field key appearing twice is an error (the last occurrence used to win
// silently — corrupted or hand-edited logs must not be half-trusted).
func ParseBytes(line []byte) (Record, error) {
	start, end := nextField(line, 0)
	if start == len(line) {
		return Record{}, fmt.Errorf("eventlog: empty line")
	}
	var rec Record
	switch kind := line[start:end]; {
	case string(kind) == "START":
		rec.Kind = KindStart
	case string(kind) == "ERROR":
		rec.Kind = KindError
	case string(kind) == "END":
		rec.Kind = KindEnd
	case string(kind) == "ALLOCFAIL":
		rec.Kind = KindAllocFail
	default:
		return Record{}, fmt.Errorf("eventlog: unknown record kind %q", kind)
	}
	rec.TempC = thermal.NoReading
	var seen uint16
	for i := end; ; {
		fs, fe := nextField(line, i)
		if fs == len(line) {
			break
		}
		i = fe
		f := line[fs:fe]
		eq := bytes.IndexByte(f, '=')
		if eq < 0 {
			return Record{}, fmt.Errorf("eventlog: malformed field %q", f)
		}
		k, v := f[:eq], f[eq+1:]
		var bit uint16
		var err error
		switch string(k) {
		case "ts":
			bit = fieldTS
			rec.At, err = parseTimestamp(v)
		case "host":
			bit = fieldHost
			rec.Host, err = cluster.ParseNodeIDBytes(v)
		case "alloc":
			bit = fieldAlloc
			rec.AllocBytes, err = parseIntBytes(v)
		case "temp":
			bit = fieldTemp
			if string(v) != "NA" {
				rec.TempC, err = parseFloatBytes(v)
			}
		case "vaddr":
			bit = fieldVAddr
			rec.VAddr, err = parseHexBytes(v)
		case "actual":
			bit = fieldActual
			var u uint64
			u, err = parseHexBytes(v)
			rec.Actual = uint32(u)
		case "expected":
			bit = fieldExpected
			var u uint64
			u, err = parseHexBytes(v)
			rec.Expected = uint32(u)
		case "ppage":
			bit = fieldPPage
			rec.PhysPage, err = parseHexBytes(v)
		case "last":
			bit = fieldLast
			rec.LastAt, err = parseTimestamp(v)
		case "logs":
			bit = fieldLogs
			var n int64
			n, err = parseIntBytes(v)
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
		if seen&bit != 0 {
			return Record{}, fmt.Errorf("eventlog: duplicate field %q", k)
		}
		seen |= bit
	}
	if seen&fieldTS == 0 || seen&fieldHost == 0 {
		return Record{}, fmt.Errorf("eventlog: record missing mandatory ts/host fields: %q", line)
	}
	// Normalize the pre-collapsed pair: either field alone implies the
	// other's default (a single-record run ends where it starts).
	sawLast := seen&fieldLast != 0
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

// asciiSpace marks strings.Fields' ASCII separator set.
var asciiSpace = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

// nextField returns the bounds of the next whitespace-separated field of
// line at or after offset i; start == len(line) means no field remains. The
// separator set matches strings.Fields (unicode.IsSpace). The hot loops are
// pure table-lookup byte scans; multi-byte runes — which the canonical
// format never emits — divert to the rune-decoding slow path.
func nextField(line []byte, i int) (start, end int) {
	for i < len(line) {
		c := line[i]
		if c >= utf8.RuneSelf {
			return nextFieldSlow(line, i)
		}
		if !asciiSpace[c] {
			break
		}
		i++
	}
	start = i
	for i < len(line) {
		c := line[i]
		if c >= utf8.RuneSelf {
			return start, fieldEndSlow(line, i)
		}
		if asciiSpace[c] {
			break
		}
		i++
	}
	return start, i
}

// nextFieldSlow resumes the separator skip at a non-ASCII byte.
func nextFieldSlow(line []byte, i int) (start, end int) {
	for i < len(line) {
		space, size := isSpaceAt(line, i)
		if !space {
			break
		}
		i += size
	}
	return i, fieldEndSlow(line, i)
}

// fieldEndSlow resumes the field scan at a non-ASCII byte.
func fieldEndSlow(line []byte, i int) int {
	for i < len(line) {
		space, size := isSpaceAt(line, i)
		if space {
			break
		}
		i += size
	}
	return i
}

func isSpaceAt(line []byte, i int) (bool, int) {
	c := line[i]
	if c < utf8.RuneSelf {
		return asciiSpace[c], 1
	}
	r, size := utf8.DecodeRune(line[i:])
	return unicode.IsSpace(r), size
}

// parseIntBytes matches strconv.ParseInt(string(v), 10, 64) — optional
// sign, decimal digits, overflow rejected — without the string conversion.
func parseIntBytes(v []byte) (int64, error) {
	neg := false
	i := 0
	if len(v) > 0 && (v[0] == '+' || v[0] == '-') {
		neg = v[0] == '-'
		i++
	}
	if i == len(v) {
		return 0, fmt.Errorf("invalid integer %q", v)
	}
	const cutoff = (1 << 63) / 10
	var n uint64
	for ; i < len(v); i++ {
		d := v[i] - '0'
		if d > 9 {
			return 0, fmt.Errorf("invalid integer %q", v)
		}
		if n > cutoff {
			return 0, fmt.Errorf("integer %q out of range", v)
		}
		n = n*10 + uint64(d)
		if n > 1<<63 || (!neg && n > 1<<63-1) {
			return 0, fmt.Errorf("integer %q out of range", v)
		}
	}
	if neg {
		return -int64(n), nil
	}
	return int64(n), nil
}

// parseHexBytes matches the old parseHex (optional "0x" prefix, then
// strconv.ParseUint(s, 16, 64)) without the string conversion.
func parseHexBytes(v []byte) (uint64, error) {
	if len(v) >= 2 && v[0] == '0' && v[1] == 'x' {
		v = v[2:]
	}
	if len(v) == 0 {
		return 0, fmt.Errorf("invalid hex %q", v)
	}
	var n uint64
	for _, c := range v {
		var d byte
		switch {
		case c >= '0' && c <= '9':
			d = c - '0'
		case c >= 'a' && c <= 'f':
			d = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			d = c - 'A' + 10
		default:
			return 0, fmt.Errorf("invalid hex %q", v)
		}
		if n >= 1<<60 {
			return 0, fmt.Errorf("hex %q out of range", v)
		}
		n = n<<4 | uint64(d)
	}
	return n, nil
}

// parseFloatBytes is strconv.ParseFloat over a byte slice without the
// copying string conversion. Shortest-round-trip temperatures need a
// correctly-rounded decimal parser, which is not worth re-implementing; the
// zero-copy view is safe because ParseFloat never retains its argument on
// success. On failure the parse is redone from a stable copy, so the
// returned *NumError cannot alias the caller's reusable read buffer.
func parseFloatBytes(v []byte) (float64, error) {
	if len(v) == 0 {
		return strconv.ParseFloat("", 64)
	}
	f, err := strconv.ParseFloat(unsafe.String(unsafe.SliceData(v), len(v)), 64)
	if err != nil {
		return strconv.ParseFloat(string(v), 64)
	}
	return f, nil
}

// Writer streams records as text lines.
type Writer struct {
	w   *bufio.Writer
	buf []byte
	n   int
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write emits one record line.
func (lw *Writer) Write(r Record) error {
	lw.buf = r.AppendText(lw.buf[:0])
	lw.buf = append(lw.buf, '\n')
	lw.n++
	_, err := lw.w.Write(lw.buf)
	return err
}

// Count returns how many records were written.
func (lw *Writer) Count() int { return lw.n }

// Flush flushes buffered output.
func (lw *Writer) Flush() error { return lw.w.Flush() }

// MaxLine bounds one log line, its '\n' included. Lines fails a line
// that passes it with bufio.ErrTooLong, so the batch loader and the
// follow-mode tailer, which both cut lines through Lines, accept the
// same files.
const MaxLine = 1 << 20

// Lines is the one line rule of the log format: it hands visit the
// record of every complete line of data, in order, and returns how many
// bytes those lines took. A line becomes a record once its '\n' is
// written; the bytes after the last '\n' are an unfinished line, left
// unconsumed for the caller to complete with more input. Blank lines are
// skipped. A malformed line fails with its number, and consumed then
// includes it. A line over MaxLine fails with its number and
// bufio.ErrTooLong as soon as data holds MaxLine of its bytes, finished
// or not, so a caller's read buffer never needs more than MaxLine
// bytes. *line counts the lines consumed, across calls, so a caller that
// feeds one file in chunks gets file line numbers. When visit returns
// false Lines stops after that line with a nil error.
//
// Lines parses straight out of data through ParseBytes, so a caller
// that reuses one read buffer reads without per-line allocations.
func Lines(data []byte, line *int, visit func(Record) bool) (consumed int, err error) {
	for {
		i := bytes.IndexByte(data[consumed:], '\n')
		if i < 0 {
			if len(data)-consumed >= MaxLine {
				return consumed, fmt.Errorf("line %d: %w", *line+1, bufio.ErrTooLong)
			}
			return consumed, nil
		}
		text := bytes.TrimSpace(data[consumed : consumed+i])
		consumed += i + 1
		*line++
		if i >= MaxLine {
			return consumed, fmt.Errorf("line %d: %w", *line, bufio.ErrTooLong)
		}
		if len(text) == 0 {
			continue
		}
		rec, err := ParseBytes(text)
		if err != nil {
			return consumed, fmt.Errorf("line %d: %w", *line, err)
		}
		if !visit(rec) {
			return consumed, nil
		}
	}
}
