package logstore

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/iofault"
	"unprotected/internal/stream"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

// followEv is one delivery of the follow iterator.
type followEv struct {
	ev  stream.Event
	err error
}

// startFollow ranges over Follow in a goroutine, pushing every delivery
// onto a channel. The returned step channel drives the injected ticker:
// one send permits one more poll round; closing it ends the follow
// cleanly. done closes when the iterator returns.
func startFollow(ctx context.Context, dir string, opts ...FollowOption) (step chan struct{}, evs chan followEv, done chan struct{}) {
	step = make(chan struct{})
	evs = make(chan followEv, 1024)
	done = make(chan struct{})
	opts = append(opts, FollowWithTicker(func(ctx context.Context) bool {
		select {
		case <-ctx.Done():
			return false
		case _, ok := <-step:
			return ok
		}
	}))
	go func() {
		defer close(done)
		for ev, err := range Follow(ctx, dir, opts...) {
			evs <- followEv{ev: ev, err: err}
		}
	}()
	return step, evs, done
}

// drainRoundEvents reads deliveries until the KindSync round boundary,
// failing on stream errors, and returns the events seen this round in
// delivery order (the sync itself excluded).
func drainRoundEvents(t *testing.T, evs chan followEv) []stream.Event {
	t.Helper()
	var out []stream.Event
	for {
		select {
		case d := <-evs:
			if d.err != nil {
				t.Fatalf("stream error: %v", d.err)
			}
			if d.ev.Kind == stream.KindSync {
				return out
			}
			out = append(out, d.ev)
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for round boundary")
		}
	}
}

// drainRound reads one round and returns its records, failing on any
// event that is not a record (rounds that expect resets use
// drainRoundEvents).
func drainRound(t *testing.T, evs chan followEv) []eventlog.Record {
	t.Helper()
	var recs []eventlog.Record
	for _, ev := range drainRoundEvents(t, evs) {
		if ev.Kind != stream.KindRecord {
			t.Fatalf("unexpected event kind %d", ev.Kind)
		}
		recs = append(recs, ev.Record)
	}
	return recs
}

// appendLines appends raw text to a node log file.
func appendLines(t *testing.T, path, text string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(text); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// line renders one record as a log line with trailing newline.
func line(rec eventlog.Record) string {
	return string(rec.AppendText(nil)) + "\n"
}

// errRec builds a raw scanner ERROR record.
func errRec(host cluster.NodeID, at timebase.T, addr dram.Addr) eventlog.Record {
	return eventlog.Record{
		Kind: eventlog.KindError, At: at, Host: host,
		VAddr: dram.VirtAddr(addr), Expected: 0xFFFFFFFF, Actual: 0xFFFFFFFE,
		TempC: thermal.NoReading,
	}
}

func TestFollowDeliversBacklogAppendsAndNewFiles(t *testing.T) {
	dir := t.TempDir()
	a := cluster.NodeID{Blade: 1, SoC: 1}
	b := cluster.NodeID{Blade: 2, SoC: 7}
	pathA := filepath.Join(dir, FileName(a))
	pathB := filepath.Join(dir, FileName(b))
	appendLines(t, pathA,
		line(eventlog.Record{Kind: eventlog.KindStart, At: 0, Host: a, AllocBytes: 1 << 30, TempC: thermal.NoReading})+
			line(errRec(a, 10, 7)))

	var st FollowStats
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	step, evs, done := startFollow(ctx, dir, FollowWithStats(&st))

	// Round 1 runs immediately: the backlog already on disk.
	recs := drainRound(t, evs)
	if len(recs) != 2 || recs[0].Kind != eventlog.KindStart || recs[1].Kind != eventlog.KindError {
		t.Fatalf("backlog round: %+v", recs)
	}

	// Appended lines and a brand-new node file are both picked up.
	appendLines(t, pathA, line(errRec(a, 20, 9)))
	appendLines(t, pathB, line(errRec(b, 15, 3)))
	step <- struct{}{}
	recs = drainRound(t, evs)
	if len(recs) != 2 {
		t.Fatalf("incremental round: %+v", recs)
	}
	// Files drain in sorted file order within a round.
	if recs[0].Host != a || recs[1].Host != b {
		t.Fatalf("round order: %v then %v", recs[0].Host, recs[1].Host)
	}

	if got := st.Lines.Load(); got != 4 {
		t.Fatalf("lines ingested %d, want 4", got)
	}
	if got := st.Rounds.Load(); got != 2 {
		t.Fatalf("rounds %d, want 2", got)
	}
	if got := st.Files.Load(); got != 2 {
		t.Fatalf("files tailed %d, want 2", got)
	}

	// Closing the ticker ends the stream cleanly: no trailing error.
	close(step)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("follow did not stop on ticker end")
	}
	select {
	case d := <-evs:
		t.Fatalf("unexpected trailing delivery %+v", d)
	default:
	}
}

func TestFollowNeverParsesTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	a := cluster.NodeID{Blade: 3, SoC: 2}
	path := filepath.Join(dir, FileName(a))
	full := line(errRec(a, 30, 5))
	half := full[:len(full)/2]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	step, evs, done := startFollow(ctx, dir)
	defer func() { cancel(); <-done }()

	if recs := drainRound(t, evs); len(recs) != 0 {
		t.Fatalf("empty dir delivered %+v", recs)
	}

	// A torn write: half a record, no newline. Nothing may be parsed.
	appendLines(t, path, half)
	step <- struct{}{}
	if recs := drainRound(t, evs); len(recs) != 0 {
		t.Fatalf("torn line was parsed: %+v", recs)
	}

	// The writer finishes the line; the record arrives whole.
	appendLines(t, path, full[len(half):])
	step <- struct{}{}
	recs := drainRound(t, evs)
	if len(recs) != 1 || recs[0].At != 30 || recs[0].Host != a {
		t.Fatalf("completed line: %+v", recs)
	}
}

// TestFollowTornTailRewrittenInOneRound: a torn final line cut back to
// the line boundary and replaced by a different, finished line before
// the next poll is no truncation. The tail's offset is the line boundary,
// so the next round reads the new line alone — no reset, and no bytes of
// the abandoned fragment spliced onto it.
func TestFollowTornTailRewrittenInOneRound(t *testing.T) {
	dir := t.TempDir()
	a := cluster.NodeID{Blade: 3, SoC: 5}
	path := filepath.Join(dir, FileName(a))
	first := line(errRec(a, 10, 1))
	appendLines(t, path, first+"START host=")

	var st FollowStats
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	step, evs, done := startFollow(ctx, dir, FollowWithStats(&st))
	defer func() { cancel(); <-done }()

	if recs := drainRound(t, evs); len(recs) != 1 || recs[0].At != 10 {
		t.Fatalf("first round %+v, want the one finished record", recs)
	}
	if err := os.Truncate(path, int64(len(first))); err != nil {
		t.Fatal(err)
	}
	appendLines(t, path, line(errRec(a, 20, 2)))
	step <- struct{}{}
	recs := drainRound(t, evs) // fails on a reset or a stream error
	if len(recs) != 1 || recs[0].Kind != eventlog.KindError || recs[0].At != 20 || recs[0].Host != a {
		t.Fatalf("second round %+v, want the appended ERROR record", recs)
	}
	if got := st.Truncations.Load(); got != 0 {
		t.Fatalf("truncations %d, want 0", got)
	}
}

// TestFollowLineLimit: the follower holds the batch loader's line limit.
// A line that fits eventlog.MaxLine, '\n' included, is delivered, however
// many rounds it took to arrive; an unterminated line that passes the
// limit ends the follow with an error naming the file and the line.
func TestFollowLineLimit(t *testing.T) {
	dir := t.TempDir()
	a := cluster.NodeID{Blade: 9, SoC: 3}
	path := filepath.Join(dir, FileName(a))
	rec := line(errRec(a, 10, 1))
	// Trailing blanks pad the record's line to exactly the limit; the
	// line rule trims them, so both readers parse the record.
	long := rec[:len(rec)-1] + strings.Repeat(" ", eventlog.MaxLine-len(rec)) + "\n"
	appendLines(t, path, rec+long[:100_000])

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	step, evs, done := startFollow(ctx, dir)
	defer func() { cancel(); <-done }()

	if recs := drainRound(t, evs); len(recs) != 1 {
		t.Fatalf("backlog %+v, want one record", recs)
	}
	appendLines(t, path, long[100_000:])
	step <- struct{}{}
	if recs := drainRound(t, evs); len(recs) != 1 || recs[0].At != 10 {
		t.Fatalf("round %+v, want the padded record", recs)
	}
	if p, err := Parts(context.Background(), dir, 1); err != nil || p.Stats.RawLogs != 2 {
		t.Fatalf("batch loader: %+v, %v; want both records", p.Stats, err)
	}

	appendLines(t, path, strings.Repeat(" ", eventlog.MaxLine+1))
	step <- struct{}{}
	select {
	case d := <-evs:
		if !errors.Is(d.err, bufio.ErrTooLong) || !strings.Contains(d.err.Error(), path) ||
			!strings.Contains(d.err.Error(), "line 3") {
			t.Fatalf("delivery %+v, want ErrTooLong naming %s, line 3", d, path)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no error for an over-long line")
	}
	_, err := Parts(context.Background(), dir, 1)
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("batch loader error %v, want ErrTooLong naming %s, line 3", err, path)
	}
}

// TestFollowAndReplayAgreeOnUnterminatedLine: a scanner killed mid-write
// leaves its log ending in a line with no '\n'. Neither the batch loader
// nor the follower makes a record of it, so a replay and a tail of the
// same file agree — even when the cut line would parse, here as a
// pre-collapsed run whose count lost its last digit.
func TestFollowAndReplayAgreeOnUnterminatedLine(t *testing.T) {
	dir := t.TempDir()
	a := cluster.NodeID{Blade: 6, SoC: 2}
	cut := errRec(a, 40, 2)
	cut.LastAt, cut.Logs = 90, 57
	torn := strings.TrimSuffix(line(cut), "7\n")
	if !strings.HasSuffix(torn, " logs=5") {
		t.Fatalf("fixture %q does not end in logs=5", torn)
	}
	appendLines(t, filepath.Join(dir, FileName(a)),
		line(eventlog.Record{Kind: eventlog.KindStart, At: 0, Host: a, AllocBytes: 1 << 30, TempC: thermal.NoReading})+
			line(errRec(a, 10, 1))+torn)

	p, err := Parts(context.Background(), dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.RawLogs != 1 || p.Stats.Faults != 1 {
		t.Fatalf("replay: %d raw logs, %d faults; want 1 and 1", p.Stats.RawLogs, p.Stats.Faults)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, evs, done := startFollow(ctx, dir)
	defer func() { cancel(); <-done }()
	recs := drainRound(t, evs)
	if len(recs) != 2 || recs[0].Kind != eventlog.KindStart || recs[1].Kind != eventlog.KindError || recs[1].At != 10 {
		t.Fatalf("follow round %+v, want the START and the finished ERROR", recs)
	}
}

// followOnce runs one Follow round over dir and returns the records it
// delivered and the error that ended it, if any.
func followOnce(dir string) ([]eventlog.Record, error) {
	var recs []eventlog.Record
	for ev, err := range Follow(context.Background(), dir, FollowWithTicker(func(context.Context) bool { return false })) {
		if err != nil {
			return recs, err
		}
		if ev.Kind == stream.KindRecord {
			recs = append(recs, ev.Record)
		}
	}
	return recs, nil
}

// TestFollowAndReplayOneFilePerNode: both readers hold the node rule. A
// record naming another host in a node's file fails the replay and the
// tail alike, with the file and the line, after the tail delivered the
// lines before it; and a file in a subdirectory, or one whose name only
// parses to a node, is no node's file.
func TestFollowAndReplayOneFilePerNode(t *testing.T) {
	a := cluster.NodeID{Blade: 1, SoC: 1}
	start := eventlog.Record{Kind: eventlog.KindStart, At: 0, Host: a, AllocBytes: 1 << 30, TempC: thermal.NoReading}

	dir := t.TempDir()
	path := filepath.Join(dir, FileName(a))
	appendLines(t, path, line(start)+line(errRec(cluster.NodeID{Blade: 2, SoC: 2}, 10, 1)))
	_, err := Parts(context.Background(), dir, 1)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "line 2:") {
		t.Fatalf("replay of a foreign line: %v, want an error naming %s and line 2", err, path)
	}
	recs, err := followOnce(dir)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "line 2:") {
		t.Fatalf("tail of a foreign line: %v, want an error naming %s and line 2", err, path)
	}
	if len(recs) != 1 || recs[0] != start {
		t.Fatalf("tail delivered %+v before the foreign line, want line 1", recs)
	}

	dir = t.TempDir()
	appendLines(t, filepath.Join(dir, FileName(a)), line(start)+line(errRec(a, 10, 1)))
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	appendLines(t, filepath.Join(dir, "sub", FileName(a)), line(errRec(a, 20, 2)))
	appendLines(t, filepath.Join(dir, "node-1-1.log"), line(errRec(a, 30, 3)))
	if files, err := ListNodeFiles(dir); err != nil || len(files) != 1 || files[0] != filepath.Join(dir, FileName(a)) {
		t.Fatalf("node files %v, %v; want only %s", files, err, FileName(a))
	}
	p, err := Parts(context.Background(), dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.RawLogs != 1 || p.Stats.Sessions != 1 {
		t.Fatalf("replay read %d raw logs and %d sessions, want node-01-01.log's 1 and 1", p.Stats.RawLogs, p.Stats.Sessions)
	}
	recs, err = followOnce(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].At != 10 {
		t.Fatalf("tail delivered %+v, want node-01-01.log's two records", recs)
	}
}

func TestFollowTruncatedFileReopensFromZero(t *testing.T) {
	dir := t.TempDir()
	a := cluster.NodeID{Blade: 4, SoC: 4}
	path := filepath.Join(dir, FileName(a))
	appendLines(t, path, line(errRec(a, 10, 1))+line(errRec(a, 200, 2)))

	// The iofault seam carries every stat/read; a transient injected Stat
	// failure must be ridden out by the retry policy, not kill the tail.
	inj := iofault.NewInjector(nil)
	var st FollowStats
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	step, evs, done := startFollow(ctx, dir, FollowWithFS(inj), FollowWithStats(&st))
	defer func() { cancel(); <-done }()

	if recs := drainRound(t, evs); len(recs) != 2 {
		t.Fatal("backlog not delivered")
	}

	// Rotate underneath the tail: truncate to zero, then write fresh
	// content shorter than the consumed offset. Without size-regression
	// detection the tail would sit at the stale offset forever.
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	appendLines(t, path, line(errRec(a, 300, 3)))
	inj.FailPath(path, 1, nil) // one injected EIO on the reopened file's first touch
	step <- struct{}{}
	round := drainRoundEvents(t, evs)
	// A KindReset for the node must precede the re-delivered content:
	// without it a consumer would fold the file's records twice.
	if len(round) != 2 || round[0].Kind != stream.KindReset || round[0].Record.Host != a {
		t.Fatalf("post-truncation round did not lead with a reset: %+v", round)
	}
	if round[1].Kind != stream.KindRecord || round[1].Record.At != 300 {
		t.Fatalf("post-truncation round: %+v", round)
	}
	if got := st.Truncations.Load(); got != 1 {
		t.Fatalf("truncations %d, want 1", got)
	}

	// The tail keeps following the recreated file.
	appendLines(t, path, line(errRec(a, 400, 4)))
	step <- struct{}{}
	if recs := drainRound(t, evs); len(recs) != 1 || recs[0].At != 400 {
		t.Fatalf("post-truncation append: %+v", recs)
	}

	// A consumed file that vanishes outright resets the node too; its
	// recreated successor is rediscovered fresh.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	step <- struct{}{}
	round = drainRoundEvents(t, evs)
	if len(round) != 1 || round[0].Kind != stream.KindReset || round[0].Record.Host != a {
		t.Fatalf("vanish round: %+v", round)
	}
	appendLines(t, path, line(errRec(a, 500, 5)))
	step <- struct{}{}
	if recs := drainRound(t, evs); len(recs) != 1 || recs[0].At != 500 {
		t.Fatalf("recreated file round: %+v", recs)
	}
}

// copyTruncate empties path in place and writes text to it, as
// logrotate's copytruncate and the writer behind it do between two polls:
// the file stays the same file, and it can regrow past the offset the
// tail consumed.
func copyTruncate(t *testing.T, path, text string) {
	t.Helper()
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	appendLines(t, path, text)
}

// checkCopyTruncate consumes old, copy-truncates the file to fresh —
// longer than old, so its size never falls below the consumed offset —
// and requires the next round to reset the node and deliver every fresh
// record. Later appends, past the check window, must not reset again.
func checkCopyTruncate(t *testing.T, a cluster.NodeID, old, fresh []eventlog.Record) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, FileName(a))
	text := func(recs []eventlog.Record) string {
		var b strings.Builder
		for _, r := range recs {
			b.WriteString(line(r))
		}
		return b.String()
	}
	appendLines(t, path, text(old))
	if len(text(fresh)) <= len(text(old)) {
		t.Fatal("fixture: the rewrite must regrow past the consumed offset")
	}

	var st FollowStats
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	step, evs, done := startFollow(ctx, dir, FollowWithStats(&st))
	defer func() { cancel(); <-done }()
	if recs := drainRound(t, evs); len(recs) != len(old) {
		t.Fatalf("backlog %+v, want %d records", recs, len(old))
	}

	copyTruncate(t, path, text(fresh))
	step <- struct{}{}
	round := drainRoundEvents(t, evs) // fails on a stream error
	if len(round) != 1+len(fresh) || round[0].Kind != stream.KindReset || round[0].Record.Host != a {
		t.Fatalf("copy-truncate round %+v, want a reset and %d records", round, len(fresh))
	}
	for i, ev := range round[1:] {
		if ev.Kind != stream.KindRecord || ev.Record.At != fresh[i].At {
			t.Fatalf("copy-truncate round event %d: %+v, want record at %d", i+1, ev, fresh[i].At)
		}
	}
	if got := st.Truncations.Load(); got != 1 {
		t.Fatalf("truncations %d, want 1", got)
	}

	// Appends after the reset are plain growth, in rounds of one line and
	// of more than checkLen bytes.
	var more []eventlog.Record
	for i := range 6 {
		more = append(more, errRec(a, timebase.T(9000+10*i), dram.Addr(40+i)))
	}
	for _, batch := range [][]eventlog.Record{more[:1], more[1:]} {
		appendLines(t, path, text(batch))
		step <- struct{}{}
		if recs := drainRound(t, evs); len(recs) != len(batch) || recs[0].At != batch[0].At {
			t.Fatalf("append after the reset: %+v, want %d records from %d", recs, len(batch), batch[0].At)
		}
	}
	if got := st.Truncations.Load(); got != 1 {
		t.Fatalf("truncations %d after plain appends, want 1", got)
	}
}

// TestFollowCopyTruncateSameLength: a consumed file truncated in place
// and rewritten, within one round, with more lines of the same length.
// Its size never falls below the offset and it is the same file, so only
// the bytes before the offset tell: they must be re-checked, and the
// node reset and re-read, not resumed at the stale offset (which skips
// the fresh lines that fill it and keeps the stale records).
func TestFollowCopyTruncateSameLength(t *testing.T) {
	a := cluster.NodeID{Blade: 4, SoC: 6}
	old := []eventlog.Record{errRec(a, 10, 1), errRec(a, 20, 2)}
	fresh := []eventlog.Record{errRec(a, 30, 3), errRec(a, 40, 4), errRec(a, 50, 5)}
	for _, r := range fresh {
		if len(line(r)) != len(line(old[0])) {
			t.Fatal("fixture: the fresh lines must have the old lines' length")
		}
	}
	checkCopyTruncate(t, a, old, fresh)
}

// TestFollowCopyTruncateMidLine: the same race with longer lines, so the
// stale offset lands inside a fresh line. Resuming there would parse a
// line's tail as a malformed record and end the follow.
func TestFollowCopyTruncateMidLine(t *testing.T) {
	a := cluster.NodeID{Blade: 4, SoC: 7}
	old := []eventlog.Record{errRec(a, 10, 1), errRec(a, 20, 2)}
	var fresh []eventlog.Record
	for i := range 3 {
		r := errRec(a, timebase.T(30+10*i), dram.Addr(3+i))
		r.TempC = 41.5 // a temperature reading lengthens the line
		fresh = append(fresh, r)
	}
	off, width := 2*len(line(old[0])), len(line(fresh[0]))
	if width == len(line(old[0])) || off%width == 0 {
		t.Fatal("fixture: the stale offset must land mid-line")
	}
	checkCopyTruncate(t, a, old, fresh)
}

// renameOnOpen renames staged over the path an armed Open is asked for,
// just before opening it: a replacement that lands between a drain's
// Stat and its Open.
type renameOnOpen struct {
	iofault.FS
	staged string
	armed  bool // set before a round is stepped; the follower disarms it
}

func (r *renameOnOpen) Open(name string) (iofault.File, error) {
	if r.armed {
		r.armed = false
		if err := os.Rename(r.staged, name); err != nil {
			return nil, err
		}
	}
	return r.FS.Open(name)
}

// TestFollowReplacedFileResets: a file renamed over a consumed one is a
// different file at the same path. Even when it is no shorter than the
// consumed offset, the node resets and the replacement is read from its
// first line, then followed. A replacement that lands between a drain's
// Stat and its Open is not read from the stale offset either: that
// round reads nothing of it, and the next one resets.
func TestFollowReplacedFileResets(t *testing.T) {
	dir := t.TempDir()
	a := cluster.NodeID{Blade: 6, SoC: 3}
	path := filepath.Join(dir, FileName(a))
	appendLines(t, path, line(errRec(a, 10, 1))+line(errRec(a, 200, 2)))

	// Replacements are staged under a name that is not a node file, so
	// the follower never tails them before the rename.
	fsys := &renameOnOpen{FS: iofault.OS, staged: filepath.Join(dir, "incoming.tmp")}
	var st FollowStats
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	step, evs, done := startFollow(ctx, dir, FollowWithFS(fsys), FollowWithStats(&st))
	defer func() { cancel(); <-done }()

	// round steps one poll round and renders its events: "reset" for
	// this node's reset, a record's time in seconds.
	round := func() []string {
		t.Helper()
		step <- struct{}{}
		var got []string
		for _, ev := range drainRoundEvents(t, evs) {
			switch {
			case ev.Kind == stream.KindReset && ev.Record.Host == a:
				got = append(got, "reset")
			case ev.Kind == stream.KindRecord:
				got = append(got, fmt.Sprint(int64(ev.Record.At)))
			default:
				got = append(got, fmt.Sprintf("kind %d for %v", ev.Kind, ev.Record.Host))
			}
		}
		return got
	}
	expect := func(name string, got []string, want ...string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s round %v, want %v", name, got, want)
		}
	}

	if recs := drainRound(t, evs); len(recs) != 2 {
		t.Fatalf("backlog %+v, want 2 records", recs)
	}

	appendLines(t, fsys.staged, line(errRec(a, 300, 3))+line(errRec(a, 400, 4))+line(errRec(a, 500, 5)))
	if err := os.Rename(fsys.staged, path); err != nil {
		t.Fatal(err)
	}
	expect("replacement", round(), "reset", "300", "400", "500")
	if got := st.Truncations.Load(); got != 1 {
		t.Fatalf("truncations %d, want 1", got)
	}
	appendLines(t, path, line(errRec(a, 600, 6)))
	expect("append", round(), "600")

	// The file grows, so the drain opens it, and the armed Open renames
	// the staged replacement over it first.
	appendLines(t, path, line(errRec(a, 700, 7)))
	appendLines(t, fsys.staged, line(errRec(a, 800, 8))+line(errRec(a, 900, 9))+
		line(errRec(a, 1000, 10))+line(errRec(a, 1100, 11))+line(errRec(a, 1200, 12)))
	fsys.armed = true
	expect("replaced between Stat and Open", round())
	expect("after the replacement", round(), "reset", "800", "900", "1000", "1100", "1200")
	if got := st.Truncations.Load(); got != 2 {
		t.Fatalf("truncations %d, want 2", got)
	}
}

// TestFollowHoldsOneDescriptorAtATime: the follower opens a node file
// only while it drains it — one open file at a time, none between
// rounds, and none for a round in which nothing changed, not even for a
// file that ends in a torn line and so stays larger than its tail's
// offset. Finishing that line opens the file once.
func TestFollowHoldsOneDescriptorAtATime(t *testing.T) {
	dir := t.TempDir()
	const nodes = 6
	var ids []cluster.NodeID
	for i := 0; i < nodes; i++ {
		id := cluster.NodeID{Blade: i + 1, SoC: 1}
		ids = append(ids, id)
		appendLines(t, filepath.Join(dir, FileName(id)), line(errRec(id, timebase.T(10*i+10), dram.Addr(i+1))))
	}

	tracker := &openTracker{FS: iofault.OS}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	step, evs, done := startFollow(ctx, dir, FollowWithFS(tracker))
	defer func() { cancel(); <-done }()

	// The round boundary is delivered after the round's last drain
	// returned, so the counts read here are the round's final ones.
	checkRound := func(name string, wantOpens int) {
		t.Helper()
		tracker.mu.Lock()
		defer tracker.mu.Unlock()
		if tracker.maxOpen != 1 || tracker.open != 0 {
			t.Fatalf("%s: open high-water %d, %d open at round end; want 1 and 0",
				name, tracker.maxOpen, tracker.open)
		}
		if len(tracker.opened) != wantOpens {
			t.Fatalf("%s: %d opens so far, want %d", name, len(tracker.opened), wantOpens)
		}
	}

	if recs := drainRound(t, evs); len(recs) != nodes {
		t.Fatalf("backlog %d records, want %d", len(recs), nodes)
	}
	checkRound("backlog round", nodes)

	for i, id := range ids {
		appendLines(t, filepath.Join(dir, FileName(id)), line(errRec(id, timebase.T(1000+10*i), dram.Addr(40+i))))
	}
	torn := line(errRec(ids[0], 2000, 99))
	appendLines(t, filepath.Join(dir, FileName(ids[0])), torn[:7])
	step <- struct{}{}
	if recs := drainRound(t, evs); len(recs) != nodes {
		t.Fatalf("append round %d records, want %d", len(recs), nodes)
	}
	checkRound("append round", 2*nodes)

	for range 2 {
		step <- struct{}{}
		if recs := drainRound(t, evs); len(recs) != 0 {
			t.Fatalf("idle round delivered %+v", recs)
		}
		checkRound("idle round", 2*nodes)
	}

	appendLines(t, filepath.Join(dir, FileName(ids[0])), torn[7:])
	step <- struct{}{}
	if recs := drainRound(t, evs); len(recs) != 1 || recs[0].At != 2000 {
		t.Fatalf("finished line round %+v, want its record", recs)
	}
	checkRound("finished line round", 2*nodes+1)
}

// failingFS serves one node file badly: every Open fails with openErr,
// or, when openErr is nil, the opened file yields its first n bytes and
// then fails every read with EIO.
type failingFS struct {
	iofault.FS
	path    string
	openErr error
	n       int
}

func (f failingFS) Open(name string) (iofault.File, error) {
	if name != f.path {
		return f.FS.Open(name)
	}
	if f.openErr != nil {
		return nil, f.openErr
	}
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &failingFile{File: file, n: f.n}, nil
}

type failingFile struct {
	iofault.File
	n int
}

func (f *failingFile) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, syscall.EIO
	}
	k, err := f.File.Read(p[:min(len(p), f.n)])
	f.n -= k
	return k, err
}

// TestFollowDrainExitReleasesToken: however a drain ends — an open that
// fails past the retry policy, a read that fails mid-file, a consumer
// that stops mid-file — the file it opened is closed before Follow
// returns, and a failure ends the stream with an error naming the file.
func TestFollowDrainExitReleasesToken(t *testing.T) {
	a := cluster.NodeID{Blade: 7, SoC: 2}
	first := line(errRec(a, 10, 1))
	content := first + line(errRec(a, 20, 2)) + line(errRec(a, 30, 3))
	cases := []struct {
		name     string
		fsys     func(path string) iofault.FS
		stopAt   int // the consumer breaks after this many records (0: never)
		wantRecs int
		wantErr  bool
	}{
		{
			name:    "open failure",
			fsys:    func(path string) iofault.FS { return failingFS{FS: iofault.OS, path: path, openErr: syscall.EIO} },
			wantErr: true,
		},
		{
			name:     "read failure mid-file",
			fsys:     func(path string) iofault.FS { return failingFS{FS: iofault.OS, path: path, n: len(first)} },
			wantRecs: 1,
			wantErr:  true,
		},
		{
			name:     "consumer break mid-file",
			stopAt:   1,
			wantRecs: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, FileName(a))
			appendLines(t, path, content)
			tracker := &openTracker{FS: iofault.OS}
			if tc.fsys != nil {
				tracker.FS = tc.fsys(path)
			}
			opts := []FollowOption{FollowWithTicker(func(context.Context) bool { return false }), FollowWithFS(tracker)}
			open := func() int {
				tracker.mu.Lock()
				defer tracker.mu.Unlock()
				return tracker.open
			}

			recs := 0
			var streamErr error
			for ev, err := range Follow(context.Background(), dir, opts...) {
				if streamErr != nil {
					t.Fatalf("delivery after the stream error %v", streamErr)
				}
				if err != nil {
					streamErr = err
					continue
				}
				if ev.Kind != stream.KindRecord {
					continue
				}
				recs++
				if held := open(); held != 1 {
					t.Fatalf("%d files open mid-drain, want 1", held)
				}
				if recs == tc.stopAt {
					break
				}
			}
			if after := open(); after != 0 {
				t.Fatalf("%d files open after Follow returned, want 0", after)
			}
			if recs != tc.wantRecs {
				t.Fatalf("%d records delivered, want %d", recs, tc.wantRecs)
			}
			if !tc.wantErr {
				if streamErr != nil {
					t.Fatalf("unexpected stream error %v", streamErr)
				}
				return
			}
			if !errors.Is(streamErr, syscall.EIO) || !strings.Contains(streamErr.Error(), path) {
				t.Fatalf("stream error %v, want EIO naming %s", streamErr, path)
			}
		})
	}
}

func TestFollowCancelSurfacesContextError(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	_, evs, done := startFollow(ctx, dir)
	drainRound(t, evs)
	cancel()
	select {
	case d := <-evs:
		if !errors.Is(d.err, context.Canceled) {
			t.Fatalf("final delivery %+v, want context.Canceled", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no final delivery after cancel")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("iterator did not return after cancel")
	}
}

func TestFollowMalformedLineAbortsPositioned(t *testing.T) {
	dir := t.TempDir()
	a := cluster.NodeID{Blade: 9, SoC: 9}
	appendLines(t, filepath.Join(dir, FileName(a)),
		line(errRec(a, 5, 1))+"NOT A RECORD\n")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, evs, done := startFollow(ctx, dir)
	var sawRecord bool
	for {
		select {
		case d := <-evs:
			if d.err != nil {
				if !strings.Contains(d.err.Error(), "line 2") {
					t.Fatalf("error not positioned: %v", d.err)
				}
				<-done
				return
			}
			if d.ev.Kind == stream.KindRecord {
				sawRecord = true
				continue
			}
			t.Fatalf("unexpected event before error (kind %d, sawRecord %v)", d.ev.Kind, sawRecord)
		case <-time.After(10 * time.Second):
			t.Fatal("no positioned error delivered")
		}
	}
}
