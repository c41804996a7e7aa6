package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/core"
	"unprotected/internal/dram"
	"unprotected/internal/timebase"
)

// TestMonitorHandlersBeforeFirstRound: every study endpoint answers 503
// until the first poll round publishes, so probes hold traffic.
func TestMonitorHandlersBeforeFirstRound(t *testing.T) {
	m, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := m.Handler()
	for _, path := range []string{"/study", "/healthz", "/nodes", "/nodes/01-01"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s before first round: %d, want 503", path, rec.Code)
		}
	}
	// /metrics stays live: the ingest counters exist from the start.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "unprotected_snapshot_epoch 0") {
		t.Errorf("/metrics before first round: %d\n%s", rec.Code, rec.Body.String())
	}
}

// TestMonitorDaemonEndToEnd is the live-daemon test: a monitor on a real
// wall-clock cadence serving real HTTP while writers append concurrently.
// It polls /study and /metrics until the fleet converges, checks every
// endpoint, then proves the final snapshot byte-identical to a one-shot
// replay — the daemon seen from outside.
func TestMonitorDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	m, err := New(dir, WithInterval(2*time.Millisecond), WithController("02-04"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx) }()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// Four writer goroutines, each appending its own node's log — the
	// per-node single-writer discipline the store documents.
	const perNode, nodes = 40, 4
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			host := cluster.NodeID{Blade: n + 1, SoC: 3}
			for i := 0; i < perNode; i++ {
				at := timebase.T(i * 1000)
				appendRecord(t, dir, startRec(host, at))
				if i%4 == 0 {
					appendRecord(t, dir, errorRec(host, at+10, dram.Addr(n*1000+i), 0xFFFFFFFE))
				}
				appendRecord(t, dir, endRec(host, at+900))
				if i%8 == 0 {
					time.Sleep(time.Millisecond) // straddle poll rounds
				}
			}
		}(n)
	}
	wg.Wait()
	wantLines := int64(nodes * (perNode*2 + perNode/4))

	// Poll /study until ingest converges on everything the writers wrote.
	deadline := time.Now().Add(60 * time.Second)
	var rep Report
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: %+v", rep)
		}
		code, body := get("/study")
		if code == http.StatusOK {
			rep = Report{}
			if err := json.Unmarshal([]byte(body), &rep); err != nil {
				t.Fatalf("bad /study JSON: %v\n%s", err, body)
			}
			if rep.Lines == wantLines {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rep.Headline.IndependentFaults != nodes*perNode/4 {
		t.Fatalf("faults %d, want %d", rep.Headline.IndependentFaults, nodes*perNode/4)
	}
	if got := len(rep.Nodes); got != nodes {
		t.Fatalf("verdicts %d, want %d", got, nodes)
	}

	// /metrics carries the study families with converged values.
	_, metrics := get("/metrics")
	if families := strings.Count(metrics, "# TYPE "); families < 6 {
		t.Fatalf("only %d metric families:\n%s", families, metrics)
	}
	for _, want := range []string{
		fmt.Sprintf("unprotected_ingest_lines_total %d", wantLines),
		fmt.Sprintf("unprotected_independent_faults_total %d", nodes*perNode/4),
		"unprotected_regime_days{regime=\"normal\"}",
		"unprotected_worst_node_raw_share{node=",
		"# TYPE unprotected_heap_live_bytes gauge\nunprotected_heap_live_bytes ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Health, the node list, one verdict, and the error paths.
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz: %d %s", code, body)
	}
	if code, body := get("/nodes/01-03"); code != http.StatusOK || !strings.Contains(body, `"node":"01-03"`) {
		t.Fatalf("/nodes/01-03: %d %s", code, body)
	}
	if code, _ := get("/nodes/99-99"); code != http.StatusBadRequest {
		t.Fatalf("invalid node id: %d, want 400", code)
	}
	if code, _ := get("/nodes/70-01"); code != http.StatusNotFound {
		t.Fatalf("unseen node: %d, want 404", code)
	}
	if resp, err := http.Post(srv.URL+"/study", "text/plain", nil); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /study: %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Two GETs of one epoch return identical bytes (pre-marshalled).
	_, a := get("/study")
	_, b := get("/study")
	if a != b {
		t.Fatal("/study bytes differ within one epoch")
	}

	// Graceful drain: cancel (the daemon's SIGTERM path) and the tail
	// loop exits clean; the final snapshot equals a one-shot replay.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not drain after cancel")
	}
	oneShot, err := core.Analyze(context.Background(), core.Logs(dir), core.WithController("02-04"))
	if err != nil {
		t.Fatal(err)
	}
	if want, got := reportBytes(oneShot), reportBytes(m.Snapshot().Study); !bytes.Equal(want, got) {
		t.Fatalf("daemon's final snapshot diverges from one-shot replay:\n--- one-shot ---\n%s\n--- monitor ---\n%s", want, got)
	}
}

// TestMonitorMetricsConcurrentReaders floods the handler with 100
// concurrent readers while ingest keeps publishing epochs underneath —
// the lock-free render claim, proven under the race detector.
func TestMonitorMetricsConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	host := cluster.NodeID{Blade: 9, SoC: 1}
	appendRecord(t, dir, startRec(host, 0))
	m, step, cancel, _ := stepMonitor(t, dir)
	waitEpoch(t, m, 1)

	h := m.Handler()
	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		// Keep epochs churning while readers render.
		defer writers.Done()
		at := timebase.T(1000)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			appendRecord(t, dir, errorRec(host, at+timebase.T(i*100), dram.Addr(i+1), 0xFFFFFFFE))
			step <- struct{}{}
		}
	}()

	const readers = 100
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := "/metrics"
			if i%3 == 1 {
				path = "/study"
			} else if i%3 == 2 {
				path = "/nodes"
			}
			for j := 0; j < 20; j++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("%s: %d", path, rec.Code)
					return
				}
				if path == "/metrics" && !strings.Contains(rec.Body.String(), "unprotected_snapshot_epoch") {
					errs <- "metrics body missing epoch family"
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	writers.Wait()
	cancel()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// TestMonitorStudyConditionalGet: /study tags each epoch's bytes with the
// quoted epoch. A client revalidating the tag it holds gets a bodyless
// 304 while the epoch stands, and the new bytes with the new tag once a
// round publishes.
func TestMonitorStudyConditionalGet(t *testing.T) {
	dir := t.TempDir()
	host := cluster.NodeID{Blade: 3, SoC: 7}
	appendRecord(t, dir, startRec(host, 0))
	m, step, cancel, _ := stepMonitor(t, dir)
	defer cancel()
	waitEpoch(t, m, 1)
	h := m.Handler()
	get := func(ifNoneMatch string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest("GET", "/study", nil)
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	first := get("")
	if first.Code != http.StatusOK || first.Header().Get("ETag") != `"1"` || first.Body.Len() == 0 {
		t.Fatalf("first GET: %d, ETag %q, %d bytes", first.Code, first.Header().Get("ETag"), first.Body.Len())
	}
	for _, tags := range []string{`"1"`, `W/"1"`, `"7", "1"`, `*`} {
		if rec := get(tags); rec.Code != http.StatusNotModified || rec.Body.Len() != 0 || rec.Header().Get("ETag") != `"1"` {
			t.Fatalf("If-None-Match %s on epoch 1: %d, %d bytes, ETag %q", tags, rec.Code, rec.Body.Len(), rec.Header().Get("ETag"))
		}
	}

	appendRecord(t, dir, endRec(host, 3600))
	step <- struct{}{}
	waitEpoch(t, m, 2)
	next := get(`"1"`)
	if next.Code != http.StatusOK || next.Header().Get("ETag") != `"2"` || bytes.Equal(next.Body.Bytes(), first.Body.Bytes()) {
		t.Fatalf("revalidation after a new epoch: %d, ETag %q, body changed %v",
			next.Code, next.Header().Get("ETag"), !bytes.Equal(next.Body.Bytes(), first.Body.Bytes()))
	}
	if rec := get(`"2"`); rec.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match \"2\" on epoch 2: %d", rec.Code)
	}
}
