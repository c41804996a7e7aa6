package stream

import (
	"context"
	"testing"
)

// FuzzEventBatchRoundTrip drives Deliver with adversarial shapes — stream
// counts, per-stream lengths and a cancellation point — and checks it
// against the element-wise reference: the delivered sequence must equal
// the reference's event for event, cancellation must cut both at the same
// delivery, and nothing may panic. The merge's own block lengths are
// FuzzMergeBlocks' subject, in internal/kway.
func FuzzEventBatchRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint16(50), uint32(0))
	f.Add(uint64(2), uint8(1), uint16(1), uint32(0))
	f.Add(uint64(3), uint8(8), uint16(600), uint32(0))
	f.Add(uint64(4), uint8(0), uint16(0), uint32(0))
	f.Add(uint64(5), uint8(4), uint16(512), uint32(100))
	f.Add(uint64(6), uint8(2), uint16(300), uint32(1))

	f.Fuzz(func(t *testing.T, seed uint64, streams uint8, perStream uint16, cancelAfter uint32) {
		nStreams := int(streams % 10)
		n := int(perStream % 1500)
		faults := synthFaultStreams(seed, nStreams, n)
		sessions := synthSessionStreams(seed^0xabcdef, nStreams, n)
		st := &Stats{Faults: nStreams * n, Sessions: nStreams * n}

		if cancelAfter == 0 {
			// Uncancelled round trip: exact sequence equality.
			want := record(func(y func(Event, error) bool) {
				deliverUnbatched(context.Background(), y, st, faults, sessions)
			})
			got := record(func(y func(Event, error) bool) {
				Deliver(context.Background(), y, st, faults, sessions)
			})
			assertSameDeliveries(t, want, got)
			return
		}

		// Cancellation at an arbitrary delivery: both paths must agree on
		// the prefix and end with the (zero, ctx.Err()) pair.
		after := int(cancelAfter % uint32(1+2*nStreams*n))
		run := func(deliver func(context.Context, func(Event, error) bool)) []delivery {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var got []delivery
			deliver(ctx, func(ev Event, err error) bool {
				got = append(got, delivery{ev, err})
				if len(got) == after+1 {
					cancel()
				}
				return true
			})
			return got
		}
		want := run(func(ctx context.Context, y func(Event, error) bool) {
			deliverUnbatched(ctx, y, st, faults, sessions)
		})
		got := run(func(ctx context.Context, y func(Event, error) bool) {
			Deliver(ctx, y, st, faults, sessions)
		})
		assertSameDeliveries(t, want, got)
	})
}
