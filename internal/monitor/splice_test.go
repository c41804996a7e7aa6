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

// TestSpliceSessionsMatchesSort: each publish splices its sessions as a
// delta of the previous epoch's, and the result equals a sort of every
// node's sessions — all it closed plus its open one closed as if
// truncated. Each trial drives the monitor's own ingest, reset and
// publish over a small node pool, with one never-drained Accounting per
// node as the oracle, through rounds that close sessions, open new ones,
// restart an open one (START after START, at times at the same second),
// drop stray ENDs, reset nodes and re-read them from earlier times, add
// nodes and remove them. The verdicts must match a walk of the dataset,
// and no node's accounting may keep a closed session past a publish.
func TestSpliceSessionsMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(20, 1))
	dir := t.TempDir() // never read: the test feeds the monitor itself
	for trial := 0; trial < 300; trial++ {
		m, err := New(dir)
		if err != nil {
			t.Fatal(err)
		}
		pool := make([]cluster.NodeID, 1+r.IntN(6))
		for k := range pool {
			pool[k] = cluster.NodeIDFromIndex(r.IntN(cluster.TotalNodes))
		}
		oracle := make(map[cluster.NodeID]*eventlog.Accounting)
		clock := make(map[cluster.NodeID]timebase.T)
		for round := 0; round < 8; round++ {
			for range r.IntN(12) {
				id := pool[r.IntN(len(pool))]
				kind := eventlog.KindStart
				switch r.IntN(7) {
				case 0: // reset: the file is rewritten from an earlier time, or is gone
					m.reset(id)
					delete(oracle, id)
					clock[id] = timebase.T(r.IntN(20))
					continue
				case 1, 2, 3:
					kind = eventlog.KindEnd
				}
				clock[id] += timebase.T(r.IntN(3))
				rec := eventlog.Record{Kind: kind, At: clock[id], Host: id, AllocBytes: int64(1 + r.IntN(2))}
				if kind == eventlog.KindEnd {
					rec.AllocBytes = 0
				}
				if oracle[id] == nil {
					oracle[id] = eventlog.NewAccounting()
				}
				oracle[id].Observe(rec)
				m.ingest(rec)
			}
			if !m.dirty {
				continue
			}
			m.publish()
			var want []eventlog.Session
			for _, acct := range oracle {
				want = acct.Snapshot(want)
			}
			slices.SortFunc(want, func(a, b eventlog.Session) int { return eventlog.CompareSessions(&a, &b) })
			snap := m.Snapshot()
			if got := snap.Study.Dataset.Sessions; !slices.Equal(got, want) {
				t.Fatalf("trial %d round %d: delta splice diverges from the sort:\n got %v\nwant %v", trial, round, got, want)
			}
			if want := oracleVerdicts(snap.Study.Dataset); !reflect.DeepEqual(snap.Report.Nodes, want) {
				t.Fatalf("trial %d round %d: verdicts\n got %+v\nwant %+v", trial, round, snap.Report.Nodes, want)
			}
			for id, ns := range m.nodes {
				if len(ns.acct.Sessions) > 0 {
					t.Fatalf("trial %d round %d: node %s keeps %d closed sessions", trial, round, id, len(ns.acct.Sessions))
				}
			}
		}
	}
}
