package monitor

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/timebase"
)

// TestSpliceMatchesFullMerge: a splice of the previous epoch with the
// dirty nodes' fresh parts equals sorting every node's current part from
// scratch. Each trial draws per-node parts with dense start-time ties and
// duplicate sessions, then changes some nodes the ways a round can: an
// append, a changed element anywhere (a closed open session, a rotated
// file), a shortened part, a vanished node, a new node, or no change at
// all while still marked dirty.
func TestSpliceMatchesFullMerge(t *testing.T) {
	r := rand.New(rand.NewPCG(18, 1))
	sorted := func(parts map[int][]eventlog.Session) []eventlog.Session {
		var all []eventlog.Session
		for _, p := range parts {
			all = append(all, p...)
		}
		slices.SortStableFunc(all, func(a, b eventlog.Session) int { return eventlog.CompareSessions(&a, &b) })
		return all
	}
	draw := func(node int, n int, from timebase.T) []eventlog.Session {
		p := make([]eventlog.Session, n)
		for i := range p {
			start := from + timebase.T(r.IntN(40))
			p[i] = eventlog.Session{Host: cluster.NodeIDFromIndex(node), From: start, To: start + timebase.T(r.IntN(3)), AllocBytes: int64(r.IntN(2))}
			if i > 0 && r.IntN(8) == 0 {
				p[i] = p[i-1]
			}
		}
		slices.SortFunc(p, func(a, b eventlog.Session) int { return eventlog.CompareSessions(&a, &b) })
		return p
	}
	for trial := 0; trial < 500; trial++ {
		old := make(map[int][]eventlog.Session)
		for range 1 + r.IntN(10) {
			i := r.IntN(cluster.TotalNodes)
			old[i] = draw(i, r.IntN(30), 0)
		}
		prev := sorted(old)

		cur := make(map[int][]eventlog.Session, len(old))
		var dirty [cluster.TotalNodes]bool
		var fresh [cluster.TotalNodes][]eventlog.Session
		for i, p := range old {
			cur[i] = p
			if r.IntN(3) == 0 {
				continue // clean
			}
			dirty[i] = true
			p = slices.Clone(p)
			switch r.IntN(5) {
			case 0: // append
				p = append(p, draw(i, 1+r.IntN(5), 35)...)
				slices.SortFunc(p, func(a, b eventlog.Session) int { return eventlog.CompareSessions(&a, &b) })
			case 1: // change one element
				if len(p) > 0 {
					p[r.IntN(len(p))].Truncated = true
					slices.SortFunc(p, func(a, b eventlog.Session) int { return eventlog.CompareSessions(&a, &b) })
				}
			case 2: // shorten
				p = p[:r.IntN(len(p)+1)]
			case 3: // vanish
				p = nil
			}
			if len(p) == 0 {
				delete(cur, i)
			} else {
				cur[i] = p
			}
			fresh[i] = p
		}
		for range r.IntN(3) { // new nodes
			if i := r.IntN(cluster.TotalNodes); old[i] == nil {
				dirty[i] = true
				fresh[i] = draw(i, 1+r.IntN(10), timebase.T(r.IntN(40)))
				cur[i] = fresh[i]
			}
		}
		want := sorted(cur)
		got := splice(prev, &dirty, &fresh, len(want), sessionNode, eventlog.SessionKey, eventlog.CompareSessions)
		if !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
			t.Fatalf("trial %d: splice diverges from the full merge:\n got %v\nwant %v", trial, got, want)
		}
	}
}
