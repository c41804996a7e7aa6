// Package kway implements a deterministic k-way merge of individually
// sorted streams. It is the ordering backbone shared by the campaign
// engine (merging per-node simulation streams) and the log-replay loader
// (merging per-node log-file streams), plus fault-store compaction:
// per-node sequences arrive already sorted from parallel workers, and the
// merge interleaves them into the canonical global order in O(n log k)
// comparisons without ever materializing the merged sequence. MergeBlocks
// is the one heap loop: it fills caller-owned blocks, so the hot path pays
// no per-element yield.
package kway

// MergeBlocks deterministically merges k individually sorted streams into
// one ordered sequence, moved in caller-owned blocks. Each merged element
// is converted by conv (the delivery layer maps faults and sessions into
// its Event sum type here, so blocks are built in one pass over the heap)
// and appended to buf; emit is invoked once per full block and once for
// the final partial one, and must consume the block before returning —
// buf is recycled for the next block. An emit returning false stops the
// merge immediately; MergeBlocks reports whether the sequence was fully
// drained.
//
// cmp must be a total order consistent with each stream's internal order.
// When two stream heads compare equal, the lower stream index wins, so the
// merge is stable across runs even for equal elements; block boundaries
// carry no meaning. Beyond the k-cursor heap nothing is allocated — with a
// pooled buf, block delivery is allocation-free in steady state. len(buf)
// is the block size and must be at least 1.
func MergeBlocks[S, T any](streams [][]S, cmp func(a, b *S) int, buf []T, conv func(S) T, emit func([]T) bool) bool {
	if len(buf) == 0 {
		panic("kway: MergeBlocks: empty block buffer")
	}
	h := make([]cursor[S], 0, len(streams))
	for i, s := range streams {
		if len(s) > 0 {
			h = append(h, cursor[S]{items: s, idx: i})
		}
	}
	less := func(a, b *cursor[S]) bool {
		if c := cmp(&a.items[a.pos], &b.items[b.pos]); c != 0 {
			return c < 0
		}
		return a.idx < b.idx
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, less)
	}
	n := 0
	for len(h) > 0 {
		top := &h[0]
		buf[n] = conv(top.items[top.pos])
		n++
		top.pos++
		if top.pos == len(top.items) {
			h[0] = h[len(h)-1]
			h[len(h)-1] = cursor[S]{} // drop the stale copy's reference
			h = h[:len(h)-1]
		}
		siftDown(h, 0, less)
		if n == len(buf) {
			if !emit(buf[:n]) {
				return false
			}
			n = 0
		}
	}
	if n > 0 {
		return emit(buf[:n])
	}
	return true
}

// cursor is one stream's read position in the merge heap.
type cursor[T any] struct {
	items []T
	pos   int
	idx   int // original stream index, the deterministic tiebreak
}

// siftDown restores the min-heap property below node i.
func siftDown[T any](h []cursor[T], i int, less func(a, b *cursor[T]) bool) {
	for {
		left, right := 2*i+1, 2*i+2
		min := i
		if left < len(h) && less(&h[left], &h[min]) {
			min = left
		}
		if right < len(h) && less(&h[right], &h[min]) {
			min = right
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
