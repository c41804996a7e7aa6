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
// Deliver merges Parts into the stream. Their Events is the two steps in
// a row; core.Analyze takes their Parts instead and merges only what
// needs canonical order (the dataset slices, the fault fold and the
// observers), so Deliver serves Events and external Sources.
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
	"sync"
	"sync/atomic"

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

// batchSize is the internal delivery granularity: the k-way merges fill
// []Event blocks of this many elements before the per-event yield loop
// walks them. Large enough to amortize block handling, small enough that
// one pooled block stays cache-resident (512 events ≈ 100 KiB now that
// Event also carries the follow-mode Record variant).
const batchSize = 512

// batchPool recycles the []Event delivery blocks across Deliver calls —
// one campaign, a replayed directory and every scenario of a sweep all
// draw from the same pool, so steady-state block delivery allocates
// nothing no matter how many sources run.
var batchPool = sync.Pool{New: func() any {
	b := make([]Event, batchSize)
	return &b
}}

// liveBatches counts pool blocks currently checked out. It exists for the
// leak gates: every Deliver return path — drained, consumer break,
// cancellation mid-batch — must put its block back, and the tests pin
// LiveBatches to zero after each of them.
var liveBatches atomic.Int64

func getBatch() *[]Event {
	liveBatches.Add(1)
	return batchPool.Get().(*[]Event)
}

func putBatch(b *[]Event) {
	batchPool.Put(b)
	liveBatches.Add(-1)
}

// LiveBatches reports how many pooled delivery blocks are checked out
// right now; zero whenever no Deliver is in flight. Test instrumentation
// for the pool-ownership contract (DESIGN.md §9).
func LiveBatches() int64 { return liveBatches.Load() }

// Parts is a built-in batch source's output before its merge: the stats
// prologue plus the sorted streams its worker pool produced — one per
// node for the campaign and the log replay, one per decoded segment for
// the fault store. Every fault stream is in extract.Compare order, every
// session stream in eventlog.CompareSessions order, and Stats counts
// exactly the elements the streams hold. A source's Events Delivers its
// Parts; core.Analyze assembles a Study from them directly, merging only
// what needs canonical order.
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
// Internally delivery is batched: the k-way merges move pooled []Event
// blocks (kway.MergeBlocks) and the yield loop walks each block
// element-wise. The observable sequence is the unbatched one — block
// boundaries are invisible to consumers, and every delivery still gets
// its own cancellation check; the tests hold Deliver against an
// element-wise reference that shares none of its merge code.
// Cancellation between deliveries yields a final (zero Event, ctx.Err())
// pair; a false yield stops everything immediately. Either way the block
// returns to the pool before Deliver does.
func Deliver(ctx context.Context, yield func(Event, error) bool,
	st *Stats, faultStreams [][]extract.Fault, sessionStreams [][]eventlog.Session) {
	bp := getBatch()
	defer putBatch(bp)
	deliverBatched(ctx, yield, st, faultStreams, sessionStreams, *bp)
}

// deliverBatched is Deliver over an explicit block buffer; the fuzz gate
// drives it with adversarial block sizes.
func deliverBatched(ctx context.Context, yield func(Event, error) bool,
	st *Stats, faultStreams [][]extract.Fault, sessionStreams [][]eventlog.Session, buf []Event) {
	if !yield(StatsEvent(st), nil) {
		return
	}
	emit := func(block []Event) bool { return yieldBlock(ctx, yield, block) }
	if !kway.MergeBlocks(faultStreams, extract.Key, extract.Compare, buf, FaultEvent, emit) {
		return
	}
	kway.MergeBlocks(sessionStreams, eventlog.SessionKey, eventlog.CompareSessions, buf, SessionEvent, emit)
}

// yieldBlock hands one merged block to the consumer element-wise,
// preserving the per-delivery contract: a cancellation check before every
// event (a mid-batch cancel delivers nothing further from the block) and
// immediate stop on a false yield.
func yieldBlock(ctx context.Context, yield func(Event, error) bool, block []Event) bool {
	done := ctx.Done()
	for _, ev := range block {
		select {
		case <-done:
			yield(Event{}, ctx.Err())
			return false
		default:
		}
		if !yield(ev, nil) {
			return false
		}
	}
	return true
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
