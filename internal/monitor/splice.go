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
	return mergeFrom(prev, p, func(s *S) bool { return dirty[node(s)] }, tails, n, key, cmp)
}

// spliceSessions returns the new epoch's sessions in CompareSessions
// order, as a delta of the previous epoch's: prev, less every session of
// a node in reset and one copy of each session in drop, merged with the
// sessions of add. drop is sorted and holds only sessions of prev, none
// of a reset node; add[i] is node i's new sessions, sorted; n is the
// output length.
//
// A closed session never changes, so prev already holds every closed
// session of a node that was not reset, and what a round changes is the
// few sessions it closed, the open sessions' views and the reset nodes.
// Every session of drop and add keys at or after cut, the least key of
// either, so prev's sessions below cut are the output's — unless one
// belongs to a reset node — and are copied as one block; the rest of prev
// is merged with add. Ties across the two sides are equal sessions, so
// their order changes no byte, and the output is the sort of every
// node's sessions.
func spliceSessions(prev []eventlog.Session, reset *[cluster.TotalNodes]bool, drop []eventlog.Session,
	add *[cluster.TotalNodes][]eventlog.Session, n int) []eventlog.Session {
	cut := int64(math.MaxInt64)
	if len(drop) > 0 {
		cut = eventlog.SessionKey(&drop[0])
	}
	var parts [][]eventlog.Session
	for _, a := range add {
		if len(a) > 0 {
			parts = append(parts, a)
			cut = min(cut, eventlog.SessionKey(&a[0]))
		}
	}
	p := sort.Search(len(prev), func(j int) bool { return eventlog.SessionKey(&prev[j]) >= cut })
	if *reset != ([cluster.TotalNodes]bool{}) {
		for j := range prev[:p] {
			if reset[sessionNode(&prev[j])] {
				p = j
				break
			}
		}
	}
	d := 0
	return mergeFrom(prev, p, func(s *eventlog.Session) bool {
		if reset[sessionNode(s)] {
			return true
		}
		if d < len(drop) && eventlog.CompareSessions(s, &drop[d]) == 0 {
			d++
			return true
		}
		return false
	}, parts, n, eventlog.SessionKey, eventlog.CompareSessions)
}

// mergeFrom returns prev[:p], then the merge of prev[p:], less the
// elements drop reports, with the kway.MergeBlocks merge of parts; n is
// the output's capacity. Every element of parts must order after prev[:p].
// drop sees each element of prev[p:] once, in order, so it may keep
// state.
func mergeFrom[S any](prev []S, p int, drop func(*S) bool, parts [][]S, n int,
	key func(*S) int64, cmp func(a, b *S) int) []S {
	out := append(make([]S, 0, n), prev[:p]...)
	rest, r := prev[p:], 0
	// keep appends rest's kept elements ordered before s, all of them for
	// a nil s.
	keep := func(s *S) {
		for j := r; ; j++ {
			if j == len(rest) || (s != nil && cmp(&rest[j], s) >= 0) {
				out = append(out, rest[r:j]...)
				r = j
				return
			}
			if drop(&rest[j]) {
				out = append(out, rest[r:j]...)
				r = j + 1
			}
		}
	}
	kway.MergeBlocks(parts, key, cmp, make([]S, 512), func(s S) S { return s }, func(block []S) bool {
		for k := range block {
			keep(&block[k])
			out = append(out, block[k])
		}
		return true
	})
	keep(nil)
	return out
}
