// Package stream defines the unified campaign event stream: the single
// shape every dataset source in this module produces and every consumer
// reads. A Source — the campaign simulator, the log-replay loader, the
// fault store, or any external implementation — yields one merged,
// canonically ordered sequence of faults and sessions as a Go 1.23
// range-over-func iterator; an Observer is a pluggable one-pass
// accumulator fed that sequence.
//
// The built-in sources produce it in two steps, each with a home here.
// Collect runs their worker pool, which leaves Parts: the stats plus one
// sorted fault and session stream per node (or per fault-store segment).
// Deliver merges Parts into the stream with two kway.Each walks, wrapping
// each element as an Event only as it yields it. Every built-in Events is
// the two steps in a row: core's one source type (Simulate, Logs, Store)
// calls the Parts of the loader its constructor named, and
// campaign.Events, logstore.Events and (*faultstore.Store).Events each
// wrap their own. core.Analyze and faultstore.Ingest take Parts instead
// and walk them typed, merging only what needs canonical order, so
// Deliver serves only the Events iterators.
//
// The contract (DESIGN.md §7):
//
//   - A stream is a stats prologue (KindStats, exactly once, carrying the
//     scalar aggregates so collecting consumers can preallocate), followed
//     by every fault in the canonical extract.Compare order
//     (time, node, address, ...), followed by every session in
//     eventlog.CompareSessions order (start time, host).
//   - The iterator is driven by the consumer's goroutine. Breaking out of
//     the range, or cancelling the context passed to Events, stops the
//     producers: built-in sources wind their worker pools down before the
//     iterator returns control, so an abandoned stream leaks nothing.
//   - On cancellation the iterator yields a final (zero Event, ctx.Err())
//     pair. Any other delivery is (event, nil) or, for source failures
//     such as an unreadable log file, (zero Event, err) — after an error
//     the iterator yields nothing further.
//   - Delivery is allocation-free per event: Event is a value, and the
//     built-in sources' merge layer performs no per-element allocation.
package stream

import (
	"context"
	"iter"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/kway"
)

// Kind discriminates the variants of the Event sum type.
type Kind uint8

const (
	// KindStats is the stream prologue: Event.Stats carries the scalar
	// aggregates, known before the first fault is delivered.
	KindStats Kind = iota + 1
	// KindFault delivers Event.Fault, in extract.Compare order.
	KindFault
	// KindSession delivers Event.Session, in eventlog.CompareSessions
	// order, after every fault.
	KindSession
	// KindRecord delivers Event.Record: one raw eventlog line, before
	// extraction. Only follow-mode (tail) streams produce it — a live log
	// has no canonical global order yet, so records arrive in per-node
	// arrival order and the consumer owns the §II-C collapse. Batch
	// (Deliver-shaped) streams never emit it.
	KindRecord
	// KindSync is a follow-mode poll-round boundary: every file the
	// tailer watches has been drained to its last complete line. It
	// carries no payload; consumers use it as the safe point to publish
	// a snapshot, because between two KindSyncs the stream may stop
	// mid-file. Batch streams never emit it.
	KindSync
	// KindReset invalidates a node's history: the file backing
	// Event.Record.Host was truncated, rotated or removed, so every
	// KindRecord previously delivered for that node no longer reflects
	// what is on disk. Consumers must discard the node's accumulated
	// state; whatever the file now holds is re-delivered as fresh
	// records. Only Event.Record.Host is meaningful. Batch streams never
	// emit it.
	KindReset
)

// Event is one element of the merged campaign stream: a tagged union of
// the stats prologue, a fault, and a session. Exactly the field named by
// Kind is meaningful; the others are zero.
type Event struct {
	Kind Kind
	// Fault is valid for KindFault events.
	Fault extract.Fault
	// Session is valid for KindSession events.
	Session eventlog.Session
	// Record is valid for KindRecord events (follow-mode streams only).
	Record eventlog.Record
	// Stats is valid for the single KindStats event. The pointed-to value
	// (including its RawLogsByNode map) is owned by the consumer once
	// yielded; sources do not retain or mutate it afterwards.
	Stats *Stats
}

// Stats are the scalar aggregates of a stream, delivered as its prologue.
type Stats struct {
	// Faults and Sessions count the dataset behind the stream: exactly
	// the deliveries that follow the prologue, so a collecting consumer
	// can preallocate.
	Faults   int
	Sessions int
	// RawLogs counts every ERROR record behind the stream (each fault is a
	// collapsed run of many raw records).
	RawLogs int64
	// RawLogsByNode splits the raw volume per node (nodes with zero raw
	// logs have no entry).
	RawLogsByNode map[cluster.NodeID]int64
	// AllocFails counts scanner sessions that could not allocate any
	// memory. Always zero for replayed log directories, which never wrote
	// a record for such sessions.
	AllocFails int
}

// StatsEvent wraps the stream prologue.
func StatsEvent(st *Stats) Event { return Event{Kind: KindStats, Stats: st} }

// FaultEvent wraps one fault delivery.
func FaultEvent(f extract.Fault) Event { return Event{Kind: KindFault, Fault: f} }

// SessionEvent wraps one session delivery.
func SessionEvent(s eventlog.Session) Event { return Event{Kind: KindSession, Session: s} }

// ResetEvent marks node's previously delivered records invalid
// (follow-mode streams; see KindReset).
func ResetEvent(node cluster.NodeID) Event {
	return Event{Kind: KindReset, Record: eventlog.Record{Host: node}}
}

// RecordEvent wraps one raw eventlog record (follow-mode streams).
func RecordEvent(r eventlog.Record) Event { return Event{Kind: KindRecord, Record: r} }

// SyncEvent marks a follow-mode poll-round boundary.
func SyncEvent() Event { return Event{Kind: KindSync} }

// Parts is a built-in batch source's output before its merge: the stats
// prologue plus the sorted streams its worker pool produced — one per
// node for the campaign and the log replay, one per decoded segment for
// the fault store. Every fault stream is in extract.Compare order, every
// session stream in eventlog.CompareSessions order, and Stats counts
// exactly the elements the streams hold. campaign.Parts, logstore.Parts
// and (*faultstore.Store).Parts produce them; a source's Events Delivers
// them, and core.Analyze assembles a Study from them directly, merging
// only what needs canonical order.
type Parts struct {
	Stats    *Stats
	Faults   [][]extract.Fault
	Sessions [][]eventlog.Session
}

// Deliver emits the standard stream shape — stats prologue, merged
// faults, merged sessions — from per-source sorted slices, so every
// built-in Source encodes the contract (ordering, per-delivery
// cancellation check, yield-false handling) exactly once.
//
// The faults and then the sessions are walked with kway.Each, which
// moves each merge in typed blocks of its own; every element is wrapped
// as an Event only as it is yielded, after its own cancellation check.
// The tests hold Deliver against an element-wise reference that shares
// none of its merge code. Cancellation between deliveries yields a final
// (zero Event, ctx.Err()) pair; a false yield stops everything
// immediately.
func Deliver(ctx context.Context, yield func(Event, error) bool,
	st *Stats, faultStreams [][]extract.Fault, sessionStreams [][]eventlog.Session) {
	if !yield(StatsEvent(st), nil) {
		return
	}
	done := ctx.Done()
	emit := func(ev Event) bool {
		select {
		case <-done:
			yield(Event{}, ctx.Err())
			return false
		default:
		}
		return yield(ev, nil)
	}
	if !kway.Each(faultStreams, extract.Key, extract.Compare, func(f *extract.Fault) bool {
		return emit(FaultEvent(*f))
	}) {
		return
	}
	kway.Each(sessionStreams, eventlog.SessionKey, eventlog.CompareSessions, func(s *eventlog.Session) bool {
		return emit(SessionEvent(*s))
	})
}

// Source yields the merged campaign stream. The built-in implementations
// are the campaign simulator and the log-replay loader; external packages
// may implement Source to feed their own datasets through the same
// one-pass analysis machinery.
type Source interface {
	// Events returns the stream as a single-use iterator honouring the
	// package contract above. Each call restarts the source from scratch;
	// ctx cancellation and early break both stop the producers leak-free.
	Events(ctx context.Context) iter.Seq2[Event, error]
}

// Observer is a pluggable one-pass accumulator over the stream. Faults
// arrive in the canonical extract.Compare order and sessions in
// eventlog.CompareSessions order — the orders the internal figure
// accumulators rely on — and Finish is called exactly once, after the
// final delivery, so an observer can seal derived state or report that
// the stream it saw was unusable.
type Observer interface {
	ObserveFault(extract.Fault)
	ObserveSession(eventlog.Session)
	Finish() error
}

// FuncObserver adapts free functions to the Observer interface; any nil
// field is skipped. The zero value is a valid no-op observer.
type FuncObserver struct {
	Fault   func(extract.Fault)
	Session func(eventlog.Session)
	Done    func() error
}

// ObserveFault implements Observer.
func (o FuncObserver) ObserveFault(f extract.Fault) {
	if o.Fault != nil {
		o.Fault(f)
	}
}

// ObserveSession implements Observer.
func (o FuncObserver) ObserveSession(s eventlog.Session) {
	if o.Session != nil {
		o.Session(s)
	}
}

// Finish implements Observer.
func (o FuncObserver) Finish() error {
	if o.Done != nil {
		return o.Done()
	}
	return nil
}
