// Package kway implements a deterministic k-way merge of individually
// sorted streams. It is the ordering backbone of every built-in batch
// source: per-node (or per-segment) sequences arrive already sorted from
// parallel workers, and the merge interleaves them into the canonical
// global order. MergeBlocks is the one merge loop: a loser tree over the
// stream heads that fills caller-owned blocks, so the hot path pays no
// per-element yield and, on distinct head keys, one integer comparison
// per tree level. Each walks it element by element, in typed blocks of
// its own; Merge is its single-block form, which fills one slice.
package kway

import "math"

// MergeBlocks deterministically merges k individually sorted streams into
// one ordered sequence, moved in caller-owned blocks. Each merged element
// is copied into buf; emit is invoked once per full block and once for
// the final partial one, and must consume the block before returning —
// buf is recycled for the next block. An emit returning false stops the
// merge immediately; MergeBlocks reports whether the sequence was fully
// drained. The streams themselves are never modified.
//
// cmp must be a total order consistent with each stream's internal order.
// When two stream heads compare equal, the lower stream index wins, so the
// merge is stable across runs even for equal elements; block boundaries
// carry no meaning. key must coarsen cmp: key(a) < key(b) implies
// cmp(a, b) < 0. The merge then orders by (key, cmp, stream index), the
// same total order as (cmp, stream index), so key only decides how often
// cmp runs: once per tie on key, never on distinct keys. A constant key
// is valid and makes every step call cmp.
//
// Beyond the tree and its k cursors nothing is allocated, so the merge
// costs no allocation per element. len(buf) is the block size and must be
// at least 1.
func MergeBlocks[T any](streams [][]T, key func(*T) int64, cmp func(a, b *T) int,
	buf []T, emit func([]T) bool) bool {
	if len(buf) == 0 {
		panic("kway: MergeBlocks: empty block buffer")
	}
	// rest[i] is the unmerged tail of the i-th non-empty stream, so
	// rest[i][0] is its head and a drained stream has an empty tail; the
	// order of rest is stream order, so i is the index tiebreak.
	rest := make([][]T, 0, len(streams))
	for _, s := range streams {
		if len(s) > 0 {
			rest = append(rest, s)
		}
	}
	k := len(rest)
	if k == 0 {
		return true
	}
	// precedes orders two streams whose head keys are equal: a drained
	// stream loses to every live one (its key, math.MaxInt64, may equal a
	// live head's), then cmp decides, then the lower index.
	precedes := func(a, b int) bool {
		ha, hb := rest[a], rest[b]
		if len(ha) == 0 || len(hb) == 0 {
			return len(hb) == 0 && len(ha) > 0
		}
		if c := cmp(&ha[0], &hb[0]); c != 0 {
			return c < 0
		}
		return a < b
	}

	// The tree is implicit: leaf i sits at position k+i, the parent of
	// position p is p/2, and internal node p (1 ≤ p < k) holds the loser
	// of the match played there. The overall winner goes to tree[0].
	// Building inserts the leaves one by one; an internal node parks the
	// first entry reaching it and plays the second, so each node plays
	// exactly the winners of its two subtrees.
	tree := make([]entry, k)
	for p := range tree {
		tree[p].src = -1
	}
leaves:
	for i := range rest {
		e := entry{key: key(&rest[i][0]), src: i}
		for p := (k + i) >> 1; p > 0; p >>= 1 {
			t := &tree[p]
			if t.src < 0 {
				*t = e
				continue leaves
			}
			if t.key < e.key || t.key == e.key && precedes(t.src, e.src) {
				*t, e = e, *t
			}
		}
		tree[0] = e
	}

	// Each pop emits the winner's head and replays the leaf-to-root path
	// with the stream's next head; a drained stream replays with
	// math.MaxInt64 and loses every match, so once the winner is drained
	// every stream is.
	n := 0
	for w := tree[0].src; len(rest[w]) > 0; {
		s := rest[w]
		buf[n] = s[0]
		n++
		e := entry{key: math.MaxInt64, src: w}
		if len(s) > 1 {
			rest[w] = s[1:]
			e.key = key(&s[1])
		} else {
			rest[w] = nil // drop the drained stream's reference
		}
		for p := (k + w) >> 1; p > 0; p >>= 1 {
			t := &tree[p]
			if t.key < e.key || t.key == e.key && precedes(t.src, e.src) {
				*t, e = e, *t
			}
		}
		w = e.src
		if n == len(buf) {
			if !emit(buf) {
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

// blockSize is the element count of the blocks Each moves: large enough
// to amortize the block hand-off, small enough to stay cache-resident.
const blockSize = 512

// Each walks the merge of streams in MergeBlocks' order, calling visit on
// every element until visit returns false; it reports whether the merge
// was drained. The elements move in a block of blockSize that Each
// allocates per call, and visit's pointer is valid only during the call.
// key and cmp follow MergeBlocks' rules; the streams are not modified.
func Each[T any](streams [][]T, key func(*T) int64, cmp func(a, b *T) int, visit func(*T) bool) bool {
	return MergeBlocks(streams, key, cmp, make([]T, blockSize), func(block []T) bool {
		for i := range block {
			if !visit(&block[i]) {
				return false
			}
		}
		return true
	})
}

// Merge merges k individually sorted streams into one new slice, in
// MergeBlocks' order: the whole output is the merge's single block, so the
// merged elements are written straight into their final positions. The
// result has exactly the streams' total length and is never nil; the
// streams themselves are not modified. key and cmp follow MergeBlocks'
// rules.
func Merge[T any](streams [][]T, key func(*T) int64, cmp func(a, b *T) int) []T {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]T, total)
	if total > 0 { // MergeBlocks rejects an empty block
		MergeBlocks(streams, key, cmp, out, func([]T) bool { return true })
	}
	return out
}

// entry is one stream's place in the loser tree: the stream's index and
// its head's cached key.
type entry struct {
	key int64
	src int
}
