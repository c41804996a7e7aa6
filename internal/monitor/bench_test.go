package monitor

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"unprotected/internal/campaign"
	"unprotected/internal/core"
	"unprotected/internal/eventlog"
	"unprotected/internal/logstore"
	"unprotected/internal/timebase"
)

// paperFleet is the seed-42 campaign's per-node log export, read into
// memory once per test binary: file name → content.
var paperFleet struct {
	once  sync.Once
	files map[string][]byte
	err   error
}

func loadPaperFleet() (map[string][]byte, error) {
	paperFleet.once.Do(func() {
		study, err := core.Analyze(context.Background(), core.Simulate(campaign.DefaultConfig(42)))
		if err != nil {
			paperFleet.err = err
			return
		}
		dir, err := os.MkdirTemp("", "paper-fleet-")
		if err != nil {
			paperFleet.err = err
			return
		}
		defer os.RemoveAll(dir)
		if err := logstore.Export(study.Dataset.Sessions, study.Dataset.Faults, dir); err != nil {
			paperFleet.err = err
			return
		}
		paths, err := logstore.ListNodeFiles(dir)
		if err != nil {
			paperFleet.err = err
			return
		}
		paperFleet.files = make(map[string][]byte, len(paths))
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				paperFleet.err = err
				return
			}
			paperFleet.files[filepath.Base(path)] = data
		}
	})
	return paperFleet.files, paperFleet.err
}

// hourChunk is what one node file gains in one held-back hour.
type hourChunk struct {
	name string
	data []byte
}

// stageFleet writes every line of files older than their last `hours`
// hours into dir and returns the held-back lines grouped by hour. Export
// files are time-ordered, so each hour is one contiguous range of a file.
func stageFleet(tb testing.TB, dir string, files map[string][]byte, hours int) [][]hourChunk {
	lineTime := func(line []byte) timebase.T {
		rec, err := eventlog.ParseBytes(line)
		if err != nil {
			tb.Fatal(err)
		}
		return rec.At
	}
	var end timebase.T
	for _, data := range files {
		if trimmed := bytes.TrimRight(data, "\n"); len(trimmed) > 0 {
			end = max(end, lineTime(trimmed[bytes.LastIndexByte(trimmed, '\n')+1:]))
		}
	}
	start := end + 1 - timebase.T(hours*3600)
	chunks := make([][]hourChunk, hours)
	for name, data := range files {
		// cut[k] is where held-back hour k starts; cut[hours] is the end.
		cut := make([]int, hours+1)
		for k := range cut {
			cut[k] = len(data)
		}
		for off := 0; off < len(data); {
			n := bytes.IndexByte(data[off:], '\n') + 1
			if n == 0 {
				n = len(data) - off
			}
			if at := lineTime(bytes.TrimSpace(data[off : off+n])); at >= start {
				for k := int((at - start) / 3600); k >= 0 && cut[k] > off; k-- {
					cut[k] = off
				}
			}
			off += n
		}
		if err := os.WriteFile(filepath.Join(dir, name), data[:cut[0]], 0o644); err != nil {
			tb.Fatal(err)
		}
		for k := 0; k < hours; k++ {
			if cut[k] < cut[k+1] {
				chunks[k] = append(chunks[k], hourChunk{name, data[cut[k]:cut[k+1]]})
			}
		}
	}
	return chunks
}

// appendHour appends one held-back hour to the staged files.
func appendHour(tb testing.TB, dir string, hour []hourChunk) {
	tb.Helper()
	for _, c := range hour {
		f, err := os.OpenFile(filepath.Join(dir, c.name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := f.Write(c.data); err != nil {
			tb.Fatal(err)
		}
		if err := f.Close(); err != nil {
			tb.Fatal(err)
		}
	}
}

// startRounds runs a Monitor over dir, excluding the paper's controller
// node, under a ticker the caller steps: wait blocks until the monitor
// has finished a round and published it — the catch-up first — and step
// lets it start the next. Between the two the Run goroutine is parked in
// the ticker, so the caller may read the monitor's ingest state. Cleanup
// stops the monitor and fails tb if Run returned an error.
func startRounds(tb testing.TB, dir string) (m *Monitor, wait, step func()) {
	tb.Helper()
	// The follower calls the ticker only after a round's publish, so a
	// receive on ready marks a finished round.
	ready, next := make(chan struct{}), make(chan struct{})
	m, err := New(dir, WithController("02-04"), WithTicker(func(ctx context.Context) bool {
		select {
		case ready <- struct{}{}:
		case <-ctx.Done():
			return false
		}
		select {
		case <-next:
			return true
		case <-ctx.Done():
			return false
		}
	}))
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var runErr error
	exited := make(chan struct{})
	go func() { runErr = m.Run(ctx); close(exited) }()
	tb.Cleanup(func() {
		cancel()
		<-exited
		if runErr != nil {
			tb.Error(runErr)
		}
	})
	wait = func() {
		select {
		case <-ready:
		case <-exited:
			tb.Fatal("monitor stopped")
		}
	}
	step = func() {
		select {
		case next <- struct{}{}:
		case <-exited:
			tb.Fatal("monitor stopped")
		}
	}
	return m, wait, step
}

// liveHeap collects and returns the bytes of heap still reachable;
// callers keep what they measure reachable across the call.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkPublishRound times one live round on the paper-scale fleet:
// the seed-42 campaign's logs are staged with their last 240 hours held
// back, the monitor catches up on the backlog, and each operation appends
// the next held-back hour and runs one poll round — tail, rebuild and
// publish — to its new snapshot. The appends are not timed. retained-MB
// is the heap the monitor holds after the last round, over what was live
// before it started.
func BenchmarkPublishRound(b *testing.B) {
	const held = 240
	if b.N > held {
		b.Fatalf("%d rounds asked for, %d hours held back", b.N, held)
	}
	files, err := loadPaperFleet()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	chunks := stageFleet(b, dir, files, held)
	before := liveHeap()
	m, wait, step := startRounds(b, dir)
	wait() // the catch-up

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		appendHour(b, dir, chunks[i])
		b.StartTimer()
		step()
		wait()
	}
	b.StopTimer()
	want := int64(1)
	for _, c := range chunks[:b.N] {
		if len(c) > 0 {
			want++
		}
	}
	if got := m.Snapshot().Epoch; got != want {
		b.Fatalf("epoch %d after %d rounds, want %d", got, b.N, want)
	}
	b.ReportMetric(float64(liveHeap()-before)/1e6, "retained-MB")
	runtime.KeepAlive(m)
}
