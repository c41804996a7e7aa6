package kway

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func cmpInt(a, b *int) int {
	switch {
	case *a < *b:
		return -1
	case *a > *b:
		return 1
	default:
		return 0
	}
}

// merge drains MergeBlocks into a slice through an identity conversion
// and a small block, so multi-block draining is exercised everywhere.
func merge[T any](streams [][]T, cmp func(a, b *T) int) []T {
	var out []T
	MergeBlocks(streams, cmp, make([]T, 3), func(v T) T { return v }, func(b []T) bool {
		out = append(out, b...)
		return true
	})
	return out
}

func TestMergeOrders(t *testing.T) {
	streams := [][]int{
		{1, 4, 7, 10},
		{2, 5, 8},
		{},
		{3, 6, 9, 11, 12},
	}
	got := merge(streams, cmpInt)
	want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order %v, want %v", got, want)
	}
}

func TestMergeEdgeCases(t *testing.T) {
	got := append(merge(nil, cmpInt), merge([][]int{{}, {}}, cmpInt)...)
	if len(got) != 0 {
		t.Fatalf("empty streams emitted %v", got)
	}
	if got := merge([][]int{{5, 6, 7}}, cmpInt); !reflect.DeepEqual(got, []int{5, 6, 7}) {
		t.Fatalf("single stream %v", got)
	}
}

func TestMergeStableOnTies(t *testing.T) {
	// Equal keys must drain in stream-index order, every time.
	type kv struct{ key, stream int }
	streams := [][]kv{
		{{1, 0}, {2, 0}},
		{{1, 1}, {2, 1}},
		{{1, 2}, {2, 2}},
	}
	cmp := func(a, b *kv) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		default:
			return 0
		}
	}
	got := merge(streams, cmp)
	want := []kv{{1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tie order %v, want %v", got, want)
	}
}

func TestMergeRandomizedAgainstSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		k := r.Intn(9)
		streams := make([][]int, k)
		var all []int
		for i := range streams {
			n := r.Intn(20)
			for j := 0; j < n; j++ {
				streams[i] = append(streams[i], r.Intn(40))
			}
			sort.Ints(streams[i])
			all = append(all, streams[i]...)
		}
		sort.Ints(all)
		got := merge(streams, cmpInt)
		if len(got) == 0 && len(all) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, all) {
			t.Fatalf("trial %d: merge %v, want %v (streams %v)", trial, got, all, streams)
		}
	}
}

// TestMergeBlocksEarlyStop: an emit returning false stops the merge
// mid-way and reports it undrained; the streams are untouched, so a fresh
// merge over them still delivers everything.
func TestMergeBlocksEarlyStop(t *testing.T) {
	streams := [][]int{{1, 4, 7}, {2, 5, 8}, {3, 6, 9}}
	var got []int
	drained := MergeBlocks(streams, cmpInt, make([]int, 4), func(v int) int { return v }, func(b []int) bool {
		got = append(got, b...)
		return false
	})
	if drained || !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("stopped merge: drained=%v got=%v", drained, got)
	}
	if all := merge(streams, cmpInt); !reflect.DeepEqual(all, []int{1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("re-merge delivered %v", all)
	}
}

// TestMergeBlocksZeroAllocPerElement is the hard gate behind the stream
// contract's "delivery is allocation-free per event": with a preallocated
// block the merge allocates only its cursor heap up front, so total
// allocations are identical for a 10-element and a 100k-element merge —
// per element, zero.
func TestMergeBlocksZeroAllocPerElement(t *testing.T) {
	build := func(perStream int) [][]int {
		streams := make([][]int, 8)
		for i := range streams {
			for j := 0; j < perStream; j++ {
				streams[i] = append(streams[i], j*8+i)
			}
		}
		return streams
	}
	block := make([]int, 64)
	ident := func(v int) int { return v }
	var sink int
	emit := func(b []int) bool {
		for _, v := range b {
			sink += v
		}
		return true
	}
	measure := func(streams [][]int) float64 {
		return testing.AllocsPerRun(10, func() {
			MergeBlocks(streams, cmpInt, block, ident, emit)
		})
	}
	small, large := measure(build(10)), measure(build(100_000))
	if small != large {
		t.Fatalf("allocations scale with element count: %v for 80 elements, %v for 800k", small, large)
	}
	// The constant is the setup: the cursor heap and the comparator
	// closure.
	if large > 5 {
		t.Fatalf("merge setup allocates %v times, want <= 5", large)
	}
}

// TestMergeBlocksMatchesMerge: the block-granular merge must flatten to
// the oracle's sequence — every stream concatenated, then stable-sorted on
// (cmp, stream index) — for every block size, and deliver full blocks plus
// one final partial.
func TestMergeBlocksMatchesMerge(t *testing.T) {
	type kv struct{ key, stream int }
	cmp := func(a, b *kv) int { return cmpInt(&a.key, &b.key) }
	r := rand.New(rand.NewSource(11))
	streams := make([][]kv, 6)
	for i := range streams {
		n := r.Intn(12)
		for j := 0; j < n; j++ {
			streams[i] = append(streams[i], kv{r.Intn(10), i})
		}
		sort.SliceStable(streams[i], func(a, b int) bool { return streams[i][a].key < streams[i][b].key })
	}
	var want []kv
	for _, s := range streams {
		want = append(want, s...)
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].key != want[j].key {
			return want[i].key < want[j].key
		}
		return want[i].stream < want[j].stream
	})

	ident := func(v kv) kv { return v }
	for _, size := range []int{1, 2, 3, 5, 12, 13, 64} {
		var got []kv
		partial := false
		drained := MergeBlocks(streams, cmp, make([]kv, size), ident, func(b []kv) bool {
			if len(b) > size {
				t.Fatalf("size %d: oversized block of %d", size, len(b))
			}
			if partial {
				t.Fatalf("size %d: block after the partial one", size)
			}
			partial = len(b) < size // only the final block may be partial
			got = append(got, b...)
			return true
		})
		if !drained {
			t.Fatalf("size %d: full consumption reported undrained", size)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("size %d: merged %v, want %v", size, got, want)
		}
	}

	// Empty input: no emit at all, trivially drained.
	calls := 0
	if !MergeBlocks(nil, cmpInt, make([]int, 4), func(v int) int { return v }, func([]int) bool { calls++; return true }) || calls != 0 {
		t.Fatalf("empty merge: %d emits", calls)
	}
}

// TestMergeBlocksEmptyBufPanics: a zero-length block buffer can never
// make progress; it must panic instead of looping.
func TestMergeBlocksEmptyBufPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty buffer")
		}
	}()
	MergeBlocks([][]int{{1}}, cmpInt, nil, func(v int) int { return v }, func([]int) bool { return true })
}
