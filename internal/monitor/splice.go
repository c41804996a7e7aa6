package monitor

import (
	"math"
	"sort"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/kway"
)

func faultNode(f *extract.Fault) int      { return f.Node.Index() }
func sessionNode(s *eventlog.Session) int { return s.Host.Index() }

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
// elements are merged two-way with the kway.MergeBlocks merge of the
// fresh parts' tails. Both comparators order different nodes' elements
// strictly, so no tie crosses the two sides, and the output is the full
// merge of every node's part, element for element.
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
	// keep appends rest's clean elements up to the first one after s.
	keep := func(s *S) {
		for {
			j := r
			for j < len(rest) && !dirty[node(&rest[j])] && cmp(&rest[j], s) < 0 {
				j++
			}
			out = append(out, rest[r:j]...)
			r = j
			if r == len(rest) || !dirty[node(&rest[r])] {
				return
			}
			r++
		}
	}
	kway.MergeBlocks(tails, key, cmp, make([]S, 512), func(s S) S { return s }, func(block []S) bool {
		for k := range block {
			keep(&block[k])
			out = append(out, block[k])
		}
		return true
	})
	for ; r < len(rest); r++ {
		if !dirty[node(&rest[r])] {
			out = append(out, rest[r])
		}
	}
	return out
}
