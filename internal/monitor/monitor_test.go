package monitor

import (
	"bytes"
	"context"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"unprotected/internal/analysis"
	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/core"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/logstore"
	"unprotected/internal/render"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

// stepMonitor runs m.Run in a goroutine under an injected stepper ticker:
// each send on step permits one more poll round (the first round runs
// unprompted), closing step ends the follow. done receives Run's error.
func stepMonitor(t *testing.T, dir string, opts ...Option) (m *Monitor, step chan struct{}, cancel context.CancelFunc, done chan error) {
	t.Helper()
	step = make(chan struct{})
	opts = append(opts, WithTicker(func(ctx context.Context) bool {
		select {
		case <-ctx.Done():
			return false
		case _, ok := <-step:
			return ok
		}
	}))
	m, err := New(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done = make(chan error, 1)
	exited := make(chan struct{})
	go func() { done <- m.Run(ctx); close(exited) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-exited:
		case <-time.After(30 * time.Second):
			t.Error("Run did not exit after cancel")
		}
	})
	return m, step, cancel, done
}

// waitEpoch polls until a snapshot with at least the wanted epoch is
// published.
func waitEpoch(t *testing.T, m *Monitor, want int64) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if s := m.Snapshot(); s != nil && s.Epoch >= want {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no snapshot reached epoch %d", want)
	return nil
}

// reportBytes renders the study's full numeric report — every figure and
// table, the byte-equivalence oracle.
func reportBytes(s *core.Study) []byte {
	var buf bytes.Buffer
	s.FullReport(&buf, core.ReportOptions{Charts: true, Heatmaps: true})
	return buf.Bytes()
}

// oracleVerdicts is the verdict table by a walk of a dataset, sharing
// nothing with the partials the monitor reads its verdicts from: every
// node with a fault or a session, in node order, its hours and TBh from
// integer seconds and byte-seconds summed over its sessions and converted
// once.
func oracleVerdicts(d *analysis.Dataset) []NodeVerdict {
	type sums struct {
		v              NodeVerdict
		secs, byteSecs int64
	}
	acc := make(map[cluster.NodeID]*sums)
	var order []cluster.NodeID
	at := func(id cluster.NodeID) *sums {
		n, ok := acc[id]
		if !ok {
			n = &sums{v: NodeVerdict{Node: id.String(), RawLogs: d.RawLogsByNode[id], Excluded: id == d.ControllerNode}}
			acc[id] = n
			order = append(order, id)
		}
		return n
	}
	for _, f := range d.Faults {
		n := at(f.Node)
		n.v.Faults++
		if f.BitCount() > 1 {
			n.v.MultiBit++
		}
	}
	for _, s := range d.Sessions {
		n := at(s.Host)
		n.v.Sessions++
		if s.Truncated {
			n.v.Open++
		} else if s.To > s.From {
			n.secs += int64(s.To - s.From)
			n.byteSecs += s.AllocBytes * int64(s.To-s.From)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Index() < order[j].Index() })
	out := make([]NodeVerdict, 0, len(order))
	for _, id := range order {
		n := acc[id]
		v := n.v
		v.Hours = float64(n.secs) / 3600
		v.TBh = float64(n.byteSecs) / (1 << 40) / 3600
		switch {
		case d.RawLogs > 0 && v.RawLogs*2 > d.RawLogs && v.Faults*2 < len(d.Faults):
			v.Class = ClassPathological
		case v.MultiBit > 0:
			v.Class = ClassMultiBit
		case v.Faults > 0:
			v.Class = ClassFaulty
		default:
			v.Class = ClassClean
		}
		out = append(out, v)
	}
	return out
}

// checkEpoch holds one published snapshot against what is on disk: its
// full report must equal a one-shot Analyze(Logs(dir)) byte for byte, and
// its verdicts must equal the oracle's walk of the one-shot dataset (the
// snapshot holds no sessions).
func checkEpoch(t *testing.T, snap *Snapshot, dir string, opts ...core.Option) {
	t.Helper()
	oneShot, err := core.Analyze(context.Background(), core.Logs(dir), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := reportBytes(oneShot), reportBytes(snap.Study); !bytes.Equal(want, got) {
		t.Fatalf("epoch %d diverges from a one-shot replay:\n--- one-shot ---\n%s\n--- monitor ---\n%s", snap.Epoch, want, got)
	}
	if want := oracleVerdicts(oneShot.Dataset); !reflect.DeepEqual(snap.Report.Nodes, want) {
		t.Fatalf("epoch %d verdicts:\n got %+v\nwant %+v", snap.Epoch, snap.Report.Nodes, want)
	}
}

// splitLines splits raw file content at a line boundary near frac.
func splitLines(raw []byte, frac float64) (head, tail []byte) {
	cut := int(float64(len(raw)) * frac)
	if cut >= len(raw) {
		return raw, nil
	}
	i := bytes.IndexByte(raw[cut:], '\n')
	if i < 0 {
		return raw, nil
	}
	return raw[:cut+i+1], raw[cut+i+1:]
}

// TestMonitorQuiescenceEquivalence is the serving core's central claim:
// at every epoch, the snapshot the incremental rebuild publishes is
// byte-identical — every figure, every table — to a one-shot Analyze
// replay of the directory as it stands, and its verdicts match a walk of
// the replay's dataset. The corpus is a subsampled simulated campaign
// (full fault set, every 6th session) staged into the live directory in
// five epochs: a backlog, partial per-file appends cut mid-file,
// late-arriving node files, a faulty node's file rotated in place to a
// shorter one, and another faulty node's file removed.
func TestMonitorQuiescenceEquivalence(t *testing.T) {
	ds, err := core.Analyze(context.Background(), core.Simulate(campaign.DefaultConfig(7)))
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]eventlog.Session, 0, len(ds.Dataset.Sessions)/6+1)
	for i := 0; i < len(ds.Dataset.Sessions); i += 6 {
		sessions = append(sessions, ds.Dataset.Sessions[i])
	}
	staging := t.TempDir()
	if err := logstore.Export(sessions, ds.Dataset.Faults, staging); err != nil {
		t.Fatal(err)
	}
	files, err := logstore.ListNodeFiles(staging)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 100 {
		t.Fatalf("corpus too small: %d files", len(files))
	}

	live := t.TempDir()
	write := func(path string, data []byte, appendTo bool) {
		flags := os.O_CREATE | os.O_WRONLY
		if appendTo {
			flags |= os.O_APPEND
		}
		f, err := os.OpenFile(path, flags, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 1 backlog: the first 60% of every even-indexed file.
	type pending struct {
		path string
		data []byte
	}
	var phase2, phase3 []pending
	for i, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(live, filepath.Base(path))
		if i%2 == 0 {
			head, tail := splitLines(raw, 0.6)
			write(dst, head, false)
			if len(tail) > 0 {
				phase2 = append(phase2, pending{dst, tail})
			}
		} else {
			// Odd-indexed files appear only mid-tail: new-file discovery.
			phase3 = append(phase3, pending{dst, raw})
		}
	}
	// The two faulty nodes the last epochs rotate and remove.
	rotated, removed := ds.Dataset.Faults[0].Node, ds.Dataset.Faults[0].Node
	for _, f := range ds.Dataset.Faults {
		if f.Node != rotated {
			removed = f.Node
			break
		}
	}
	if removed == rotated {
		t.Fatal("corpus has a single faulty node")
	}

	controller := core.WithController("02-04")
	m, step, cancel, done := stepMonitor(t, live, WithController("02-04"))
	snap := waitEpoch(t, m, 1)
	if snap.Report.Lines == 0 || snap.Report.Files == 0 {
		t.Fatalf("backlog round ingested nothing: %+v", snap.Report)
	}
	checkEpoch(t, snap, live, controller)

	epoch := int64(1)
	round := func(name string, change func()) *Snapshot {
		t.Helper()
		change()
		step <- struct{}{}
		epoch++
		snap := waitEpoch(t, m, epoch)
		if snap.Epoch != epoch {
			t.Fatalf("%s: epoch %d, want %d", name, snap.Epoch, epoch)
		}
		checkEpoch(t, snap, live, controller)
		return snap
	}
	round("mid-file appends", func() {
		for _, p := range phase2 {
			write(p.path, p.data, true)
		}
	})
	round("late files", func() {
		for _, p := range phase3 {
			write(p.path, p.data, false)
		}
	})
	round("rotation", func() {
		path := filepath.Join(live, logstore.FileName(rotated))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		head, _ := splitLines(raw, 0.3)
		if err := os.WriteFile(path, head, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	final := round("vanished file", func() {
		if err := os.Remove(filepath.Join(live, logstore.FileName(removed))); err != nil {
			t.Fatal(err)
		}
	})
	if m.Stats().Truncations.Load() == 0 {
		t.Fatal("rotation not detected as truncation")
	}
	for _, v := range final.Report.Nodes {
		if v.Node == removed.String() {
			t.Fatalf("removed node %s still has a verdict: %+v", removed, v)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if final.Report.Lines != m.Stats().Lines.Load() {
		t.Fatalf("frozen line counter %d != live %d at quiescence", final.Report.Lines, m.Stats().Lines.Load())
	}
}

// mkrec appends one canonical log line to a node file.
func appendRecord(t *testing.T, dir string, rec eventlog.Record) {
	t.Helper()
	path := filepath.Join(dir, logstore.FileName(rec.Host))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(rec.AppendText(nil), '\n')); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func startRec(host cluster.NodeID, at timebase.T) eventlog.Record {
	return eventlog.Record{Kind: eventlog.KindStart, At: at, Host: host, AllocBytes: 2 << 30, TempC: thermal.NoReading}
}

func endRec(host cluster.NodeID, at timebase.T) eventlog.Record {
	return eventlog.Record{Kind: eventlog.KindEnd, At: at, Host: host, TempC: thermal.NoReading}
}

func errorRec(host cluster.NodeID, at timebase.T, addr dram.Addr, actual uint32) eventlog.Record {
	return eventlog.Record{
		Kind: eventlog.KindError, At: at, Host: host,
		VAddr: dram.VirtAddr(addr), Expected: 0xFFFFFFFF, Actual: actual,
		TempC: thermal.NoReading,
	}
}

// TestMonitorVerdictClasses pins the per-node classification rules on a
// hand-built fleet: a clean node, a single-bit faulty node, a multi-bit
// node, and a raw-log flooder crossing the pathological threshold.
func TestMonitorVerdictClasses(t *testing.T) {
	dir := t.TempDir()
	clean := cluster.NodeID{Blade: 1, SoC: 1}
	faulty := cluster.NodeID{Blade: 2, SoC: 1}
	multi := cluster.NodeID{Blade: 3, SoC: 1}
	flooder := cluster.NodeID{Blade: 4, SoC: 1}

	appendRecord(t, dir, startRec(clean, 0))
	appendRecord(t, dir, endRec(clean, 3600))
	appendRecord(t, dir, startRec(faulty, 0))
	appendRecord(t, dir, errorRec(faulty, 100, 7, 0xFFFFFFFE))
	appendRecord(t, dir, endRec(faulty, 3600))
	appendRecord(t, dir, startRec(multi, 0))
	appendRecord(t, dir, errorRec(multi, 200, 9, 0xFFFFFF00))
	appendRecord(t, dir, endRec(multi, 3600))
	flood := errorRec(flooder, 300, 11, 0xFFFF7FFF)
	flood.LastAt, flood.Logs = 4000, 1_000_000
	appendRecord(t, dir, startRec(flooder, 0))
	appendRecord(t, dir, flood)

	m, _, cancel, _ := stepMonitor(t, dir)
	snap := waitEpoch(t, m, 1)
	cancel()
	checkEpoch(t, snap, dir)

	want := map[string]string{
		clean.String():   ClassClean,
		faulty.String():  ClassFaulty,
		multi.String():   ClassMultiBit,
		flooder.String(): ClassPathological,
	}
	if len(snap.Report.Nodes) != len(want) {
		t.Fatalf("verdicts: %+v", snap.Report.Nodes)
	}
	for _, v := range snap.Report.Nodes {
		if want[v.Node] != v.Class {
			t.Errorf("node %s class %q, want %q", v.Node, v.Class, want[v.Node])
		}
	}
	// The flooder's still-open session must be accounted conservatively:
	// present, marked open, zero hours (§II-B).
	fv := snap.byNode[flooder.String()]
	if fv == nil || fv.Open != 1 || fv.Sessions != 1 || fv.Hours != 0 {
		t.Fatalf("flooder verdict %+v, want one open zero-hour session", fv)
	}
	if cv := snap.byNode[clean.String()]; cv == nil || cv.Hours <= 0 {
		t.Fatalf("clean verdict %+v, want positive monitored hours", cv)
	}
}

// TestMonitorVerdictMajorityFaulter: a node holding the majority of the
// fleet's raw volume is pathological only while its faults are a
// minority; one that also holds most of the fleet's faults is a faulty
// node, however loud. The seed-42 export's excluded controller, 02-04,
// is one: it holds 53,292 of the fleet's 58,307 faults and most of its
// raw volume.
func TestMonitorVerdictMajorityFaulter(t *testing.T) {
	dir := t.TempDir()
	loud := cluster.NodeID{Blade: 5, SoC: 2}
	quiet := cluster.NodeID{Blade: 6, SoC: 1}
	appendRecord(t, dir, startRec(loud, 0))
	for i := range 3 {
		rec := errorRec(loud, timebase.T(100+i), dram.Addr(20+i), 0xFFFFFFFE)
		rec.LastAt, rec.Logs = 3000, 1000
		appendRecord(t, dir, rec)
	}
	appendRecord(t, dir, endRec(loud, 3600))
	appendRecord(t, dir, startRec(quiet, 0))
	appendRecord(t, dir, errorRec(quiet, 200, 9, 0xFFFFFFFE))
	appendRecord(t, dir, endRec(quiet, 3600))

	m, _, cancel, _ := stepMonitor(t, dir)
	snap := waitEpoch(t, m, 1)
	cancel()
	checkEpoch(t, snap, dir)
	if v := snap.byNode[loud.String()]; v == nil || v.Faults != 3 || v.RawLogs != 3000 || v.Class != ClassFaulty {
		t.Fatalf("majority faulter verdict %+v, want class %q with 3 faults and 3000 raw logs", v, ClassFaulty)
	}
}

// TestMonitorIdleRoundsPublishNothing: rounds that ingest nothing must
// not churn epochs — readers of a quiet fleet keep the same snapshot.
// TestMonitorTruncationResetsNodeState: when a node's file is truncated
// and rewritten underneath the tail, the monitor must discard that node's
// accumulated state (stream.KindReset) before folding the re-delivered
// content — otherwise the reread double-counts every session and fault
// and the quiescence equivalence breaks. Found live: a rotated file left
// the node with both the old and the reread sessions.
func TestMonitorTruncationResetsNodeState(t *testing.T) {
	dir := t.TempDir()
	a := cluster.NodeID{Blade: 6, SoC: 2}
	b := cluster.NodeID{Blade: 7, SoC: 1}
	for i := 0; i < 4; i++ {
		at := timebase.T(i * 1000)
		appendRecord(t, dir, startRec(a, at))
		appendRecord(t, dir, errorRec(a, at+5, dram.Addr(i+1), 0xFFFFFFFE))
		appendRecord(t, dir, endRec(a, at+900))
		appendRecord(t, dir, startRec(b, at))
		appendRecord(t, dir, endRec(b, at+900))
	}

	m, step, cancel, _ := stepMonitor(t, dir)
	checkEpoch(t, waitEpoch(t, m, 1), dir)

	// Rotate a's file in place: shorter, different content. The reread
	// must replace a's state, not stack on top of it.
	var fresh []byte
	for _, rec := range []eventlog.Record{
		startRec(a, 10000),
		errorRec(a, 10005, 99, 0xFFFFFFFE),
		endRec(a, 10900),
	} {
		fresh = append(fresh, rec.AppendText(nil)...)
		fresh = append(fresh, '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, logstore.FileName(a)), fresh, 0o644); err != nil {
		t.Fatal(err)
	}
	step <- struct{}{}
	snap := waitEpoch(t, m, 2)
	if m.Stats().Truncations.Load() == 0 {
		t.Fatal("rotation not detected as truncation")
	}
	va := snap.Report.Nodes[0]
	if va.Node != "06-02" || va.Sessions != 1 || va.Faults != 1 {
		t.Fatalf("rotated node carries stale state: %+v", va)
	}
	if vb := snap.Report.Nodes[1]; vb.Sessions != 4 {
		t.Fatalf("untouched node disturbed: %+v", vb)
	}

	// And the rebuilt snapshot still equals a one-shot replay of what is
	// on disk now.
	checkEpoch(t, snap, dir)
	cancel()
}

func TestMonitorIdleRoundsPublishNothing(t *testing.T) {
	dir := t.TempDir()
	appendRecord(t, dir, startRec(cluster.NodeID{Blade: 1, SoC: 2}, 0))
	m, step, cancel, _ := stepMonitor(t, dir)
	snap := waitEpoch(t, m, 1)
	for i := 0; i < 3; i++ {
		step <- struct{}{}
	}
	// The sends above only return once Follow reaches the next wait, so
	// at least two idle rounds have fully completed by now.
	if cur := m.Snapshot(); cur.Epoch != snap.Epoch {
		t.Fatalf("idle rounds advanced the epoch: %d -> %d", snap.Epoch, cur.Epoch)
	}
	cancel()
}

// TestMonitorOptionErrors pins constructor validation.
func TestMonitorOptionErrors(t *testing.T) {
	if _, err := New(t.TempDir(), WithController("not-a-node")); err == nil {
		t.Fatal("bad controller accepted")
	}
	if _, err := New(t.TempDir(), nil); err == nil {
		t.Fatal("nil option accepted")
	}
	if _, err := New(t.TempDir(), WithInterval(-time.Second)); err == nil {
		t.Fatal("negative interval accepted")
	}
}

// TestMonitorRunSurfacesCorruptLine: a malformed line is fatal to the
// tail loop and surfaces from Run with the file position.
func TestMonitorRunSurfacesCorruptLine(t *testing.T) {
	dir := t.TempDir()
	host := cluster.NodeID{Blade: 5, SoC: 5}
	appendRecord(t, dir, startRec(host, 0))
	if err := os.WriteFile(filepath.Join(dir, logstore.FileName(host)), []byte("GARBAGE\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(context.Background()); err == nil {
		t.Fatal("corrupt line did not surface")
	}
}

// TestMonitorHoldsHistoryOnce: the monitor keeps no session it has
// folded. After the catch-up on the seed-42 fleet and after one appended
// hour, no node's accounting holds a closed session, and the heap the
// monitor retains, over what was live before it started, is at most
// 20 MB: the published faults (about 4.7 MB), the per-node partials and
// the collapsers. The seed-42 fleet's 584,214 sessions alone are 28 MB.
func TestMonitorHoldsHistoryOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("stages the seed-42 fleet")
	}
	files, err := loadPaperFleet()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	chunks := stageFleet(t, dir, files, 1)
	before := liveHeap()
	m, wait, step := startRounds(t, dir)
	// Between wait and step the Run goroutine is parked in the ticker, so
	// its ingest state is safe to read.
	checkTaken := func(name string) {
		t.Helper()
		for i, ns := range &m.nodes {
			if ns != nil && len(ns.acct.Sessions) > 0 {
				t.Fatalf("%s: node %s's accounting holds %d closed sessions", name, cluster.NodeIDFromIndex(i), len(ns.acct.Sessions))
			}
		}
	}
	wait()
	checkTaken("catch-up")
	appendHour(t, dir, chunks[0])
	step()
	wait()
	checkTaken("appended hour")

	retained := liveHeap() - before
	snap := m.Snapshot()
	t.Logf("retained %.1f MB (%d faults, no sessions)", float64(retained)/1e6, len(snap.Study.Dataset.Faults))
	if n := len(snap.Study.Dataset.Sessions); n > 0 {
		t.Fatalf("the snapshot publishes %d sessions", n)
	}
	if retained > 20e6 {
		t.Fatalf("monitor retains %.1f MB, over 20 MB", float64(retained)/1e6)
	}
	runtime.KeepAlive(m)
}

// TestMonitorPublishSessionsMatchOracle: a publish folds the sessions
// each changed node closed and keeps none, and what it serves equals an
// oracle that never drains: one Accounting per node, fed every record
// since the node's last reset. Each trial drives the monitor's own
// ingest, reset and publish over a small node pool through rounds that
// close sessions, open new ones, restart an open one (START after START,
// at times at the same second), drop stray ENDs, add faults, reset nodes
// and re-read them from earlier times, add nodes and remove them. After
// every publish the verdicts must equal the oracle's walk of its
// sessions and the snapshot's faults, each node's Figs 1–2 cells its
// exact sums, and no node's accounting may keep a closed session.
func TestMonitorPublishSessionsMatchOracle(t *testing.T) {
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
				id, kind := pool[r.IntN(len(pool))], r.IntN(8)
				if kind == 0 { // reset: the file is rewritten from an earlier time, or is gone
					m.reset(id)
					delete(oracle, id)
					clock[id] = timebase.T(r.IntN(20))
					continue
				}
				clock[id] += timebase.T(r.IntN(3))
				rec := startRec(id, clock[id])
				switch kind {
				case 1, 2, 3:
					rec = endRec(id, clock[id])
				case 4:
					rec = errorRec(id, clock[id], dram.Addr(r.IntN(3)), 0xFFFFFFFF^(1<<r.IntN(32)|1<<r.IntN(32)))
				default:
					rec.AllocBytes = int64(1 + r.IntN(2))
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
			snap := m.Snapshot()
			ds := snap.Study.Dataset
			var sessions []eventlog.Session
			for _, acct := range oracle {
				sessions = acct.Snapshot(sessions)
			}
			want := oracleVerdicts(&analysis.Dataset{
				Faults: ds.Faults, Sessions: sessions,
				RawLogs: ds.RawLogs, RawLogsByNode: ds.RawLogsByNode,
			})
			if !reflect.DeepEqual(snap.Report.Nodes, want) {
				t.Fatalf("trial %d round %d: verdicts\n got %+v\nwant %+v", trial, round, snap.Report.Nodes, want)
			}
			cells := make(map[cluster.NodeID][2]float64)
			for _, v := range want {
				id, err := cluster.ParseNodeID(v.Node)
				if err != nil {
					t.Fatal(err)
				}
				cells[id] = [2]float64{v.Hours, v.TBh}
			}
			for fig, g := range []*render.Grid{analysis.HoursHeatmap(snap.Study.Figures.Headline, nil),
				analysis.TBhHeatmap(snap.Study.Figures.Headline, nil)} {
				for b, row := range g.Values {
					for s, got := range row {
						id := cluster.NodeID{Blade: b + 1, SoC: s + 1}
						if want := cells[id][fig]; got != want {
							t.Fatalf("trial %d round %d: %s cell %s = %v, want %v", trial, round, g.Title, id, got, want)
						}
					}
				}
			}
			for i, ns := range &m.nodes {
				if ns != nil && len(ns.acct.Sessions) > 0 {
					t.Fatalf("trial %d round %d: node %s keeps %d closed sessions", trial, round, cluster.NodeIDFromIndex(i), len(ns.acct.Sessions))
				}
			}
		}
	}
}
