package eventlog

import (
	"cmp"
	"sort"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/timebase"
	"unprotected/internal/units"
)

// Session is one reconstructed scanner run on a node: from a START record
// to the matching END.
type Session struct {
	Host       cluster.NodeID
	From, To   timebase.T
	AllocBytes int64
	// Truncated marks sessions whose END was never logged (hard reboot).
	// Per §II-B these contribute zero monitored time: "we took a
	// conservative approach and we assumed 0 hours of memory monitoring".
	Truncated bool
}

// CompareSessions is the canonical total order over sessions: (start,
// host, end, allocation, truncation). No two sessions of one host share a
// start time, so (start, host) alone already orders any real campaign; the
// remaining fields only exist to keep the order total on arbitrary input.
// The campaign's k-way merge relies on this totality.
func CompareSessions(a, b *Session) int {
	switch {
	case a.From != b.From:
		return cmp.Compare(a.From, b.From)
	case a.Host.Blade != b.Host.Blade:
		// (Blade, SoC) matches Index() order on valid IDs but stays
		// injective on arbitrary ones, keeping the order truly total.
		return cmp.Compare(a.Host.Blade, b.Host.Blade)
	case a.Host.SoC != b.Host.SoC:
		return cmp.Compare(a.Host.SoC, b.Host.SoC)
	case a.To != b.To:
		return cmp.Compare(a.To, b.To)
	case a.AllocBytes != b.AllocBytes:
		return cmp.Compare(a.AllocBytes, b.AllocBytes)
	case a.Truncated != b.Truncated:
		if b.Truncated {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// SessionKey is CompareSessions' leading key, the start time:
// SessionKey(a) < SessionKey(b) implies CompareSessions(a, b) < 0, so a
// merge may order sessions by SessionKey and call CompareSessions only
// when two keys are equal.
func SessionKey(s *Session) int64 { return int64(s.From) }

// Seconds returns the monitored time in whole seconds, zero for truncated
// sessions: the exact form the figure accumulators sum.
func (s Session) Seconds() int64 {
	if s.Truncated || s.To <= s.From {
		return 0
	}
	return int64(s.To - s.From)
}

// Duration returns the monitored time, zero for truncated sessions.
func (s Session) Duration() time.Duration { return time.Duration(s.Seconds()) * time.Second }

// TBh returns the memory-time scanned by the session.
func (s Session) TBh() units.TBh {
	return units.TBhOf(s.AllocBytes, s.Duration())
}

// Accounting reconstructs sessions from an ordered record stream. Records of
// different hosts may be interleaved; records of one host must be in time
// order (as they are in per-node log files).
type Accounting struct {
	// open holds each host's open session by value, so a START allocates
	// nothing once the map has room.
	open map[cluster.NodeID]Session
	// Sessions holds the closed sessions not yet handed over by
	// TakeClosed, in closing order.
	Sessions []Session
}

// NewAccounting returns an empty accumulator.
func NewAccounting() *Accounting {
	return &Accounting{open: make(map[cluster.NodeID]Session)}
}

// Observe consumes one record.
func (a *Accounting) Observe(r Record) {
	switch r.Kind {
	case KindStart:
		if prev, ok := a.open[r.Host]; ok {
			// START after START: the node was hard-rebooted and the END
			// lost. Close the previous session as truncated (0 hours).
			prev.Truncated = true
			a.Sessions = append(a.Sessions, prev)
		}
		a.open[r.Host] = Session{Host: r.Host, From: r.At, AllocBytes: r.AllocBytes}
	case KindEnd:
		if s, ok := a.open[r.Host]; ok {
			s.To = r.At
			a.Sessions = append(a.Sessions, s)
			delete(a.open, r.Host)
		}
		// An END without a START is dropped: nothing can be accounted.
	}
}

// TakeClosed hands over the sessions closed since the accumulator was
// built or last handed them over, in closing order, and forgets them:
// afterwards it holds only its open set, and Snapshot and Finish return
// only what closes from then on. A closed session never changes, so a
// consumer that folds what it takes — the live monitor folds each closed
// session once into its node's figures and keeps no copy — needs none
// here.
func (a *Accounting) TakeClosed() []Session {
	closed := a.Sessions
	a.Sessions = nil
	return closed
}

// Open returns the number of open sessions: started and not yet closed.
func (a *Accounting) Open() int { return len(a.open) }

// Finish closes still-open sessions as truncated and returns all sessions.
// It is Snapshot plus clearing the open set, the way Collapser.Close is
// Snapshot plus Reset, so a replay closing its files and a quiescent live
// monitor snapshotting its tails truncate open sessions through one rule.
func (a *Accounting) Finish() []Session {
	// dst aliases a.Sessions from offset zero: Snapshot copies the closed
	// sessions onto themselves and appends the truncated open set.
	a.Sessions = a.Snapshot(a.Sessions[:0])
	clear(a.open)
	return a.Sessions
}

// Snapshot appends every session Finish would return — closed ones plus
// the still-open set closed as-if-truncated — to dst, without mutating
// the accumulator: a later END still closes its session normally. It is
// the conservative view of a log mid-tail (§II-B: an unfinished session
// contributes zero monitored time), and Finish is this view made final;
// the live monitor needs only its count, the closed sessions it took
// plus Open, since a truncated session adds nothing to a figure. The
// open-set tail is sorted by CompareSessions: the open set is a map, and
// letting map-iteration order leak into the result would make every
// replay of the same logs order its truncated sessions differently.
func (a *Accounting) Snapshot(dst []Session) []Session {
	dst = append(dst, a.Sessions...)
	open := make([]Session, 0, len(a.open))
	for _, s := range a.open {
		s.Truncated = true
		open = append(open, s)
	}
	sort.Slice(open, func(i, j int) bool { return CompareSessions(&open[i], &open[j]) < 0 })
	return append(dst, open...)
}
