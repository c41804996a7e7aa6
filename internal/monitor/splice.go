package monitor

import (
	"math"
	"sort"

	"unprotected/internal/cluster"
	"unprotected/internal/extract"
	"unprotected/internal/kway"
)

func faultNode(f *extract.Fault) int { return f.Node.Index() }

// splice returns one dataset slice of the new epoch, in cmp order: prev,
// the previous epoch's, with every dirty node's elements replaced by its
// fresh part. node maps an element to its node's index, dirty marks the
// nodes to replace, fresh[i] is dirty node i's part in cmp order (empty
// for a node that vanished), and n is the output length.
//
// A round mostly appends to the ends of the logs, so a dirty node's fresh
// part shares a long prefix with its old elements. One pass over prev
// matches each dirty node's old elements against its fresh part and finds
// cut, the least key at which any dirty node's elements changed. Below cut
// every node's old and fresh elements agree, so prev's elements below cut
// are the output's and are copied as one block. From cut on, prev's clean
// elements are merged two-way with the kway.Each walk of the fresh parts'
// tails. Both comparators order different nodes' elements strictly, so no
// tie crosses the two sides, and the output is the full merge of every
// node's part, element for element.
func splice[S any](prev []S, dirty *[cluster.TotalNodes]bool, fresh *[cluster.TotalNodes][]S, n int,
	node func(*S) int, key func(*S) int64, cmp func(a, b *S) int) []S {
	cut := int64(math.MaxInt64)
	// matched[i] counts dirty node i's old elements found equal to the
	// head of its fresh part; -1 once one differs.
	var matched [cluster.TotalNodes]int
	for j := range prev {
		i := node(&prev[j])
		if !dirty[i] || matched[i] < 0 {
			continue
		}
		f, k := fresh[i], matched[i]
		if k < len(f) && cmp(&prev[j], &f[k]) == 0 {
			matched[i]++
			continue
		}
		cut = min(cut, key(&prev[j]))
		if k < len(f) {
			cut = min(cut, key(&f[k]))
		}
		matched[i] = -1
	}
	for i, f := range fresh {
		if k := matched[i]; dirty[i] && k >= 0 && k < len(f) {
			cut = min(cut, key(&f[k])) // the fresh part outgrew the old
		}
	}
	var tails [][]S
	for _, f := range fresh {
		if j := sort.Search(len(f), func(j int) bool { return key(&f[j]) >= cut }); j < len(f) {
			tails = append(tails, f[j:])
		}
	}
	p := sort.Search(len(prev), func(j int) bool { return key(&prev[j]) >= cut })
	out := append(make([]S, 0, n), prev[:p]...)
	rest, r := prev[p:], 0
	// keep appends rest's clean elements ordered before s, all of them
	// for a nil s.
	keep := func(s *S) {
		for j := r; ; j++ {
			if j == len(rest) || (s != nil && cmp(&rest[j], s) >= 0) {
				out = append(out, rest[r:j]...)
				r = j
				return
			}
			if dirty[node(&rest[j])] {
				out = append(out, rest[r:j]...)
				r = j + 1
			}
		}
	}
	kway.Each(tails, key, cmp, func(s *S) bool {
		keep(s)
		out = append(out, *s)
		return true
	})
	keep(nil)
	return out
}
