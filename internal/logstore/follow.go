package logstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"iter"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/iofault"
	"unprotected/internal/stream"
)

// DefaultFollowInterval is the tail poll cadence when no option overrides
// it: fast enough that a fleet monitor's figures lag the logs by about a
// second, slow enough that an idle 1000-node directory costs one stat
// sweep per second, not a busy loop.
const DefaultFollowInterval = time.Second

// FollowStats is the caller-owned counter block a follower publishes
// into (FollowWithStats). All fields are atomics, so a monitoring
// daemon's HTTP handlers read them lock-free while the tail loop writes.
type FollowStats struct {
	// Rounds counts completed poll rounds (one KindSync each).
	Rounds atomic.Int64
	// Lines counts parsed records delivered as KindRecord events.
	Lines atomic.Int64
	// Files reports how many node files are currently being tailed.
	Files atomic.Int64
	// Truncations counts tailed files that were truncated, rotated or
	// replaced under the follower after it had consumed some of them,
	// forcing a re-read from offset zero.
	Truncations atomic.Int64
}

// followCfg is the resolved follow option set.
type followCfg struct {
	fsys     iofault.FS
	interval time.Duration
	// wait blocks until the next poll round is due, returning false when
	// the follow should stop (the injectable ticker; tests drive it
	// deterministically, production builds one from interval).
	wait  func(ctx context.Context) bool
	stats *FollowStats
}

// FollowOption configures Follow.
type FollowOption func(*followCfg) error

// FollowWithFS routes every file operation of the follower through fsys —
// the seam the truncation and torn-write tests inject faults through.
func FollowWithFS(fsys iofault.FS) FollowOption {
	return func(c *followCfg) error {
		if fsys == nil {
			return errors.New("nil FS")
		}
		c.fsys = fsys
		return nil
	}
}

// FollowWithInterval sets the poll cadence (default one second).
func FollowWithInterval(d time.Duration) FollowOption {
	return func(c *followCfg) error {
		if d <= 0 {
			return fmt.Errorf("non-positive poll interval %v", d)
		}
		c.interval = d
		return nil
	}
}

// FollowWithTicker replaces the wall-clock poll ticker: wait blocks until
// the next round is due and returns false to end the follow cleanly (the
// iterator then yields ctx.Err() if the context was cancelled, or simply
// returns). Tests inject a channel-driven stepper here so tail behavior
// is deterministic — no sleeps, no wall clock.
func FollowWithTicker(wait func(ctx context.Context) bool) FollowOption {
	return func(c *followCfg) error {
		if wait == nil {
			return errors.New("nil ticker")
		}
		c.wait = wait
		return nil
	}
}

// FollowWithStats publishes the follower's counters into st.
func FollowWithStats(st *FollowStats) FollowOption {
	return func(c *followCfg) error {
		if st == nil {
			return errors.New("nil FollowStats")
		}
		c.stats = st
		return nil
	}
}

// Follow tails a log directory: it delivers every record already on disk,
// then keeps polling for appended lines and newly created node files, as
// an endless stream of KindRecord events in per-node arrival order with a
// KindSync boundary after each poll round. It is the live-ingest
// counterpart of Events — a fleet monitor ranges over it for the lifetime
// of the process.
//
// Contract (differs from the batch Source shape, see stream.KindRecord):
//
//   - No stats prologue: totals are unknowable mid-tail.
//   - Records of one node arrive in file-append order; nodes interleave
//     in sorted file order per round, NOT in the canonical global merge
//     order. Consumers that need canonical order re-establish it at
//     snapshot time (extract.Compare is total, so sorting the same fault
//     set always yields the same sequence).
//   - Lines are cut by eventlog.Lines, the batch loader's line rule. A
//     torn final line — bytes after the last complete '\n' — is never
//     parsed and never held: a tail's offset stops at its last complete
//     line, the torn bytes stay on disk, and the drain that finds the
//     line finished reads it from there. While such a file does not
//     change (same file, size and modification time as the last drain
//     saw), a round costs it one Stat and no Open.
//   - A line is at most eventlog.MaxLine bytes, '\n' included, as for
//     the batch loader: an unterminated line that passes the limit ends
//     the stream with an error naming the file and the line.
//   - A file that was truncated, rotated or replaced after the follower
//     consumed some of it is re-read from offset zero. Three signs give
//     it away: its size fell below the consumed offset; Stat now
//     describes a different file at the path (os.SameFile); or the bytes
//     just before the offset no longer hash to what the tail consumed
//     there — a copy-truncate that regrew the file past the offset
//     within one round. Each drain of a grown file re-reads those
//     checkLen bytes in its first read, so the check costs no extra call;
//     a rewrite that leaves the file exactly at the offset is caught by
//     the first drain that finds it grown. The offset is a line boundary,
//     so cutting only a torn final line is no truncation. A KindReset
//     event for the file's node precedes the re-read: every record
//     previously delivered from the old content is invalid, and the
//     consumer must discard that node's accumulated state before the
//     file's current content arrives as fresh records. A tailed file that
//     vanishes after delivering records resets the same way.
//   - The node rule, as for the batch loader: the node files are the
//     entries of dir itself named exactly FileName(node), and a record
//     naming another host ends the stream with an error naming the file
//     and the line, after the lines before it were delivered. So a
//     node's records come from its one file, and a reset covers them
//     all.
//   - No descriptor outlives a drain: a file that grew is opened through
//     iofault.Open, read to the size its Stat reported and closed,
//     freeing its descriptor slot, so the follower holds at most one
//     descriptor at a time. A drain reads only the file its Stat
//     measured; a file renamed over the path in between waits for the
//     next round, which resets the node.
//   - Cancelling ctx (or a false injectable ticker) ends the stream; a
//     cancelled context is surfaced as a final (zero Event, ctx.Err())
//     pair. A parse or I/O error that survives the retry policy ends the
//     stream the same way.
func Follow(ctx context.Context, dir string, opts ...FollowOption) iter.Seq2[stream.Event, error] {
	return func(yield func(stream.Event, error) bool) {
		cfg := followCfg{fsys: iofault.OS, interval: DefaultFollowInterval}
		for _, opt := range opts {
			if opt == nil {
				yield(stream.Event{}, errors.New("logstore: Follow: nil FollowOption"))
				return
			}
			if err := opt(&cfg); err != nil {
				yield(stream.Event{}, fmt.Errorf("logstore: Follow: %w", err))
				return
			}
		}
		if cfg.wait == nil {
			ticker := time.NewTicker(cfg.interval)
			defer ticker.Stop()
			cfg.wait = func(ctx context.Context) bool {
				select {
				case <-ctx.Done():
					return false
				case <-ticker.C:
					return true
				}
			}
		}
		f := &follower{cfg: cfg, dir: dir, tails: make(map[string]*tail),
			buf: make([]byte, 64*1024), win: make([]byte, 0, checkLen)}
		for {
			if !f.poll(ctx, yield) {
				return
			}
			if cfg.stats != nil {
				cfg.stats.Rounds.Add(1)
			}
			if !yield(stream.SyncEvent(), nil) {
				return
			}
			if !cfg.wait(ctx) {
				if err := ctx.Err(); err != nil {
					yield(stream.Event{}, err)
				}
				return
			}
		}
	}
}

// checkLen is how many bytes just before a tail's offset its sum
// covers: a few log lines.
const checkLen = 256

// tail is the follower's per-file cursor. It holds no descriptor and no
// bytes: every drain opens the file afresh and seeks to checkLen bytes
// before off, a line boundary, and a torn final line stays on disk until
// a drain finds it finished.
type tail struct {
	path string
	node cluster.NodeID
	// info is the file's Stat as of the last finished drain. A Stat that
	// describes a different file (os.SameFile) means the path was
	// replaced; one of the same file at the same size and modification
	// time means nothing changed.
	info   fs.FileInfo
	off    int64 // bytes consumed from the file, through its last complete line
	lineNo int   // complete lines consumed
	// sum is the FNV-1a hash of the min(checkLen, off) bytes before off,
	// as the tail consumed them. A drain that re-reads different bytes
	// there finds the file rewritten underneath the tail.
	sum uint64
}

// follower tracks every tailed file.
type follower struct {
	cfg   followCfg
	dir   string
	tails map[string]*tail
	// buf is the one read buffer every drain reuses; eventlog.Lines
	// parses lines straight out of it. It holds 64 KiB and grows, up to
	// eventlog.MaxLine, only to fit a longer line.
	buf []byte
	// win holds the last checkLen bytes the current drain consumed, from
	// which it sets its tail's sum.
	win []byte
}

// poll runs one round: discover files, detect truncations, read every
// file to its current end, deliver complete lines. It returns false when
// the stream must stop (consumer break, cancellation, or an error that
// was already yielded).
func (f *follower) poll(ctx context.Context, yield func(stream.Event, error) bool) bool {
	files, err := listNodeFiles(ctx, f.cfg.fsys, f.dir)
	if err != nil {
		yield(stream.Event{}, err)
		return false
	}
	live := make(map[string]bool, len(files))
	for _, path := range files {
		live[path] = true
	}
	// A tracked file that vanished (rotation by rename, cleanup) stops
	// being tailed; if a file reappears at the same path it is discovered
	// fresh, from offset zero. Consumers holding state folded from the
	// vanished content are told to drop it (sorted so multiple vanishes
	// in one round reset in a deterministic order).
	var gone []*tail
	for path, t := range f.tails {
		if !live[path] {
			gone = append(gone, t)
		}
	}
	sort.Slice(gone, func(i, j int) bool { return gone[i].path < gone[j].path })
	for _, t := range gone {
		if !f.drop(t, yield) {
			return false
		}
	}
	for _, path := range files {
		if err := ctx.Err(); err != nil {
			yield(stream.Event{}, err)
			return false
		}
		t := f.tails[path]
		if t == nil {
			node, _ := nodeOfFile(path)
			t = &tail{path: path, node: node}
			f.tails[path] = t
		}
		if !f.drain(ctx, t, yield) {
			return false
		}
	}
	if f.cfg.stats != nil {
		f.cfg.stats.Files.Store(int64(len(f.tails)))
	}
	return true
}

// drop stops tailing a vanished file, resetting its node if records were
// delivered from it.
func (f *follower) drop(t *tail, yield func(stream.Event, error) bool) bool {
	delete(f.tails, t.path)
	return t.off == 0 || yield(stream.ResetEvent(t.node), nil)
}

// drain catches one tail up with its file: stat for growth, truncation
// or replacement, then open, read and deliver every newly completed
// line, and close the file before returning.
func (f *follower) drain(ctx context.Context, t *tail, yield func(stream.Event, error) bool) bool {
	var info fs.FileInfo
	err := iofault.DefaultRetry.Do(ctx, func() error {
		var serr error
		info, serr = f.cfg.fsys.Stat(t.path)
		return serr
	})
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// Deleted between ReadDir and Stat: drop it; a recreated file
			// is rediscovered next round.
			return f.drop(t, yield)
		}
		yield(stream.Event{}, fmt.Errorf("logstore: follow %s: %w", t.path, err))
		return false
	}
	replaced := t.info != nil && !os.SameFile(t.info, info)
	if t.info != nil && !replaced && info.Size() == t.info.Size() && info.ModTime().Equal(t.info.ModTime()) {
		// Unchanged since the last drain. A file that ends in a torn line
		// is larger than off, yet an idle round costs it this one Stat.
		return true
	}
	size := info.Size()
	if t.off > 0 && (size < t.off || replaced) {
		// The file was truncated, rotated or replaced underneath us. The
		// old offset now points past (or into the middle of) content we
		// never saw; the only consistent restart is offset zero — and a
		// reset telling the consumer to drop everything it folded from
		// the old content, which the re-read below re-delivers as fresh
		// records. Without this check the tail would block at the stale
		// offset forever, or read a replacement from the middle. off is a
		// line boundary, so cutting only a torn final line is no
		// truncation: the tail resumes where it was.
		if !f.reset(t, yield) {
			return false
		}
	}
	if size <= t.off {
		t.info = info
		return true
	}
	file, err := iofault.Open(ctx, f.cfg.fsys, t.path)
	if err != nil {
		yield(stream.Event{}, fmt.Errorf("logstore: follow %s: %w", t.path, err))
		return false
	}
	defer file.Close()
	// A file renamed over the path between the Stat and the Open is not
	// the one measured. Read nothing from it this round: the next
	// round's Stat sees the replacement and restarts it at offset zero.
	if again, err := f.cfg.fsys.Stat(t.path); err != nil || !os.SameFile(info, again) {
		return true
	}
	// The first read starts back bytes early: they are what the tail
	// consumed just before off, and must still hash to its sum.
	back := min(int64(checkLen), t.off)
	if _, err := file.Seek(t.off-back, io.SeekStart); err != nil {
		yield(stream.Event{}, fmt.Errorf("logstore: follow %s: %w", t.path, err))
		return false
	}
	f.win = f.win[:0]
	// Read to the size the stat observed, not to EOF: a writer appending
	// concurrently could otherwise keep this loop in one file while every
	// other tail starves. What lands after the stat is next round's work.
	// f.buf[:n] holds the bytes read but not yet consumed: first the
	// check bytes still to verify, then an unfinished line. The torn
	// final line's bytes are dropped at the end and re-read by the drain
	// that finds the line finished.
	n, check := 0, int(back)
	for remain := size - t.off + back; remain > 0; {
		if n == len(f.buf) {
			f.buf = append(f.buf, make([]byte, min(2*n, eventlog.MaxLine)-n)...)
		}
		rn, rerr := file.Read(f.buf[n : n+int(min(int64(len(f.buf)-n), remain))])
		remain -= int64(rn)
		n += rn
		if check > 0 && n >= check {
			if fnv64a(f.buf[:check]) != t.sum {
				// Truncated in place and regrown past off since the last
				// drain: reset, and re-read the file from the start.
				if !f.reset(t, yield) {
					return false
				}
				if _, err := file.Seek(0, io.SeekStart); err != nil {
					yield(stream.Event{}, fmt.Errorf("logstore: follow %s: %w", t.path, err))
					return false
				}
				n, check, remain = 0, 0, size
				continue
			}
			f.keep(f.buf[:check])
			n = copy(f.buf, f.buf[check:n])
			check = 0
		}
		if check == 0 && rn > 0 {
			ok := true
			done, err := lines(f.buf[:n], &t.lineNo, t.node, func(rec eventlog.Record) bool {
				if f.cfg.stats != nil {
					f.cfg.stats.Lines.Add(1)
				}
				ok = yield(stream.RecordEvent(rec), nil)
				return ok
			})
			t.off += int64(done)
			f.keep(f.buf[:done])
			t.sum = fnv64a(f.win)
			if err != nil {
				yield(stream.Event{}, fmt.Errorf("logstore: follow %s: %w", t.path, err))
				return false
			}
			if !ok {
				return false
			}
			n = copy(f.buf, f.buf[done:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			yield(stream.Event{}, fmt.Errorf("logstore: follow %s: %w", t.path, rerr))
			return false
		}
	}
	t.info = info
	return true
}

// reset restarts t at offset zero and tells the consumer to drop what it
// folded from the file's old content.
func (f *follower) reset(t *tail, yield func(stream.Event, error) bool) bool {
	t.off, t.lineNo, t.sum = 0, 0, 0
	if f.cfg.stats != nil {
		f.cfg.stats.Truncations.Add(1)
	}
	return yield(stream.ResetEvent(t.node), nil)
}

// keep appends consumed bytes to f.win, which holds the last checkLen.
func (f *follower) keep(b []byte) {
	if len(b) >= checkLen {
		f.win = append(f.win[:0], b[len(b)-checkLen:]...)
		return
	}
	if drop := len(f.win) + len(b) - checkLen; drop > 0 {
		f.win = f.win[:copy(f.win, f.win[drop:])]
	}
	f.win = append(f.win, b...)
}

// fnv64a is the 64-bit FNV-1a hash of b.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
