package kway

import (
	"cmp"
	"fmt"
	"math"
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

func keyInt(v *int) int64 { return int64(*v) }

// mergeSmallBlocks drains MergeBlocks into a slice through a small block,
// so multi-block draining is exercised everywhere.
func mergeSmallBlocks[T any](streams [][]T, key func(*T) int64, cmp func(a, b *T) int) []T {
	var out []T
	MergeBlocks(streams, key, cmp, make([]T, 3), func(b []T) bool {
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
	got := mergeSmallBlocks(streams, keyInt, cmpInt)
	want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order %v, want %v", got, want)
	}
}

func TestMergeEdgeCases(t *testing.T) {
	got := append(mergeSmallBlocks(nil, keyInt, cmpInt), mergeSmallBlocks([][]int{{}, {}}, keyInt, cmpInt)...)
	if len(got) != 0 {
		t.Fatalf("empty streams emitted %v", got)
	}
	if got := mergeSmallBlocks([][]int{{5, 6, 7}}, keyInt, cmpInt); !reflect.DeepEqual(got, []int{5, 6, 7}) {
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
	got := mergeSmallBlocks(streams, func(v *kv) int64 { return int64(v.key) }, cmp)
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
		got := mergeSmallBlocks(streams, keyInt, cmpInt)
		if len(got) == 0 && len(all) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, all) {
			t.Fatalf("trial %d: merge %v, want %v (streams %v)", trial, got, all, streams)
		}
	}
}

// TestMergeIntoSlice: Merge is MergeBlocks' single-block form. Zero
// streams, only empty streams and one stream are its edge cases; on
// randomized ties it must give the oracle's order, and it must leave its
// streams untouched.
func TestMergeIntoSlice(t *testing.T) {
	for _, streams := range [][][]int{nil, {}, {{}, {}}} {
		if got := Merge(streams, keyInt, cmpInt); got == nil || len(got) != 0 {
			t.Fatalf("Merge(%v) = %#v, want an empty non-nil slice", streams, got)
		}
	}
	one := []int{5, 6, 7}
	got := Merge([][]int{one}, keyInt, cmpInt)
	if !reflect.DeepEqual(got, one) {
		t.Fatalf("single stream %v", got)
	}
	if got[0] = 0; one[0] != 5 {
		t.Fatal("single-stream Merge aliases its input")
	}
	for _, k := range []int{1, 2, 3, 13, 923} {
		streams := itemStreams(k)
		want := mergeSmallBlocks(streams, func(v *item) int64 { return v.t }, cmpItem)
		if got := Merge(streams, func(v *item) int64 { return v.t }, cmpItem); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: Merge diverges from MergeBlocks at %d", k, firstDiff(got, want))
		}
	}
}

// TestEach: Each visits the merge's elements in the oracle's order, and a
// visit returning false stops it after exactly that visit, mid-block or on
// a block boundary.
func TestEach(t *testing.T) {
	key := func(v *item) int64 { return v.t }
	streams := itemStreams(923)
	want := flattenSorted(streams)
	if len(want) <= blockSize {
		t.Fatalf("fixture of %d elements fills no second block", len(want))
	}
	for _, stop := range []int{1, 2, blockSize - 1, blockSize, blockSize + 1, len(want)} {
		var got []item
		drained := Each(streams, key, cmpItem, func(v *item) bool {
			got = append(got, *v)
			return len(got) < stop
		})
		if drained || !reflect.DeepEqual(got, want[:stop]) {
			t.Fatalf("stop=%d: drained=%v after %d visits, first difference at %d",
				stop, drained, len(got), firstDiff(got, want[:stop]))
		}
	}
	var got []item
	if !Each(streams, key, cmpItem, func(v *item) bool { got = append(got, *v); return true }) || !reflect.DeepEqual(got, want) {
		t.Fatalf("full walk: %d elements, first difference at %d", len(got), firstDiff(got, want))
	}
	if !Each(nil, key, cmpItem, func(*item) bool { t.Fatal("visit on an empty merge"); return true }) {
		t.Fatal("empty merge reported undrained")
	}
}

// TestMergeBlocksEarlyStop: an emit returning false stops the merge
// mid-way and reports it undrained; the streams are untouched, so a fresh
// merge over them still delivers everything.
func TestMergeBlocksEarlyStop(t *testing.T) {
	streams := [][]int{{1, 4, 7}, {2, 5, 8}, {3, 6, 9}}
	var got []int
	drained := MergeBlocks(streams, keyInt, cmpInt, make([]int, 4), func(b []int) bool {
		got = append(got, b...)
		return false
	})
	if drained || !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("stopped merge: drained=%v got=%v", drained, got)
	}
	if all := mergeSmallBlocks(streams, keyInt, cmpInt); !reflect.DeepEqual(all, []int{1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("re-merge delivered %v", all)
	}
}

// TestMergeBlocksZeroAllocPerElement is the hard gate behind the stream
// contract's "delivery is allocation-free per event": with a preallocated
// block the merge allocates only its loser tree and cursors up front, so total
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
	var sink int
	emit := func(b []int) bool {
		for _, v := range b {
			sink += v
		}
		return true
	}
	measure := func(streams [][]int) float64 {
		return testing.AllocsPerRun(10, func() {
			MergeBlocks(streams, keyInt, cmpInt, block, emit)
		})
	}
	small, large := measure(build(10)), measure(build(100_000))
	if small != large {
		t.Fatalf("allocations scale with element count: %v for 80 elements, %v for 800k", small, large)
	}
	// The constant is the setup: the loser tree and the cursors.
	if large > 5 {
		t.Fatalf("merge setup allocates %v times, want <= 5", large)
	}
}

// item is a merge element ordered by cmpItem on (t, sub); stream and pos
// only identify it, so equal elements stay distinguishable in the output.
type item struct {
	t           int64
	sub         int
	stream, pos int
}

func cmpItem(a, b *item) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	return cmp.Compare(a.sub, b.sub)
}

// itemStreams builds k sorted streams over a narrow (t, sub) range, so
// keys tie across streams and inside one stream. Every third stream ends
// on an element at t = math.MaxInt64, which stays live after most streams
// have drained.
func itemStreams(k int) [][]item {
	r := rand.New(rand.NewSource(int64(k)))
	maxLen := 2 + 400/k
	streams := make([][]item, k)
	for i := range streams {
		s := make([]item, r.Intn(maxLen+1))
		for j := range s {
			s[j] = item{t: int64(r.Intn(24) - 8), sub: r.Intn(3), stream: i}
		}
		if i%3 == 2 || k == 1 {
			s = append(s, item{t: math.MaxInt64, sub: r.Intn(2), stream: i})
		}
		sort.SliceStable(s, func(a, b int) bool { return cmpItem(&s[a], &s[b]) < 0 })
		for j := range s {
			s[j].pos = j
		}
		streams[i] = s
	}
	return streams
}

// TestMergeBlocksMatchesMerge: the block-granular merge must flatten to
// the oracle's sequence — every stream concatenated, then stable-sorted on
// (cmp, stream index) — for every stream count, every key that coarsens
// cmp and every block size, and deliver full blocks plus one final
// partial. The constant key sends every step through cmp.
func TestMergeBlocksMatchesMerge(t *testing.T) {
	keys := []struct {
		name string
		key  func(*item) int64
	}{
		{"exact", func(v *item) int64 { return v.t }},
		{"coarse", func(v *item) int64 { return v.t / 4 }},
		{"constant", func(*item) int64 { return 0 }},
	}
	for _, k := range []int{1, 2, 3, 5, 8, 13, 64, 923} {
		streams := itemStreams(k)
		want := flattenSorted(streams)
		for _, kf := range keys {
			t.Run(fmt.Sprintf("k=%d/%s", k, kf.name), func(t *testing.T) {
				for _, size := range []int{1, 2, 3, 5, 12, 13, 64} {
					var got []item
					partial := false
					drained := MergeBlocks(streams, kf.key, cmpItem, make([]item, size), func(b []item) bool {
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
						t.Fatalf("size %d: merged %d elements, want %d; first difference at %d",
							size, len(got), len(want), firstDiff(got, want))
					}
				}
			})
		}
	}

	// Empty input: no emit at all, trivially drained.
	calls := 0
	if !MergeBlocks(nil, keyInt, cmpInt, make([]int, 4), func([]int) bool { calls++; return true }) || calls != 0 {
		t.Fatalf("empty merge: %d emits", calls)
	}
}

// flattenSorted is the merge oracle: every stream concatenated in stream
// order, then stable-sorted under cmpItem, so equal elements keep
// stream-index order, the merge's tiebreak.
func flattenSorted(streams [][]item) []item {
	var all []item
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return cmpItem(&all[i], &all[j]) < 0 })
	return all
}

// firstDiff is the first index at which got and want differ.
func firstDiff(got, want []item) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	return min(len(got), len(want))
}

// TestMergeBlocksEmptyBufPanics: a zero-length block buffer can never
// make progress; it must panic instead of looping.
func TestMergeBlocksEmptyBufPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty buffer")
		}
	}()
	MergeBlocks([][]int{{1}}, keyInt, cmpInt, nil, func([]int) bool { return true })
}

// FuzzMergeBlocks drives the loser tree with adversarial shapes: 0–9
// streams whose keys tie densely within and across streams, a key that
// is exact, coarse or constant, a block length of 1–2048 and an early
// stop. The flattened blocks must equal the flatten-and-stable-sort
// oracle, or its prefix up to the block that stopped the merge, and Each
// must stop after exactly the visit that returned false.
func FuzzMergeBlocks(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint16(50), uint16(7), uint32(0))
	f.Add(uint64(2), uint8(1), uint16(1), uint16(1), uint32(0))
	f.Add(uint64(3), uint8(8), uint16(600), uint16(511), uint32(0))
	f.Add(uint64(4), uint8(0), uint16(0), uint16(9), uint32(3))
	f.Add(uint64(5), uint8(4), uint16(512), uint16(512), uint32(100))
	f.Add(uint64(6), uint8(2), uint16(300), uint16(2047), uint32(1))

	keys := []func(*item) int64{
		func(v *item) int64 { return v.t },
		func(v *item) int64 { return v.t / 4 },
		func(*item) int64 { return 0 },
	}
	f.Fuzz(func(t *testing.T, seed uint64, streams uint8, perStream, block uint16, stop uint32) {
		r := rand.New(rand.NewSource(int64(seed)))
		in := make([][]item, streams%10)
		n := int(perStream % 1500)
		for i := range in {
			s := make([]item, r.Intn(n+1))
			for j := range s {
				s[j] = item{t: int64(r.Intn(32) - 8), sub: r.Intn(3), stream: i}
			}
			if r.Intn(4) == 0 {
				s = append(s, item{t: math.MaxInt64, sub: r.Intn(2), stream: i})
			}
			sort.SliceStable(s, func(a, b int) bool { return cmpItem(&s[a], &s[b]) < 0 })
			for j := range s {
				s[j].pos = j
			}
			in[i] = s
		}
		key := keys[seed%uint64(len(keys))]
		want := flattenSorted(in)
		// stopAt is the element count after which the merge is stopped;
		// zero drains it.
		stopAt := 0
		if stop > 0 && len(want) > 0 {
			stopAt = int(stop%uint32(len(want))) + 1
		}

		size := int(block%2048) + 1
		var got []item
		drained := MergeBlocks(in, key, cmpItem, make([]item, size), func(b []item) bool {
			if len(b) == 0 || len(b) > size {
				t.Fatalf("block of %d elements, block size %d", len(b), size)
			}
			got = append(got, b...)
			return stopAt == 0 || len(got) < stopAt
		})
		wantLen := len(want)
		if stopAt > 0 {
			wantLen = min(len(want), (stopAt+size-1)/size*size)
		}
		if drained != (stopAt == 0) || len(got) != wantLen || !reflect.DeepEqual(got, want[:wantLen]) {
			t.Fatalf("size %d, stop %d: drained=%v, %d of %d elements, first difference at %d",
				size, stopAt, drained, len(got), wantLen, firstDiff(got, want[:wantLen]))
		}

		got = got[:0]
		drained = Each(in, key, cmpItem, func(v *item) bool {
			got = append(got, *v)
			return stopAt == 0 || len(got) < stopAt
		})
		wantLen = len(want)
		if stopAt > 0 {
			wantLen = stopAt
		}
		if drained != (stopAt == 0) || !reflect.DeepEqual(got, want[:wantLen]) {
			t.Fatalf("Each, stop %d: drained=%v after %d visits, first difference at %d",
				stopAt, drained, len(got), firstDiff(got, want[:wantLen]))
		}
	})
}
