package monitor

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
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
func stageFleet(b *testing.B, dir string, files map[string][]byte, hours int) [][]hourChunk {
	lineTime := func(line []byte) timebase.T {
		rec, err := eventlog.ParseBytes(line)
		if err != nil {
			b.Fatal(err)
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
			b.Fatal(err)
		}
		for k := 0; k < hours; k++ {
			if cut[k] < cut[k+1] {
				chunks[k] = append(chunks[k], hourChunk{name, data[cut[k]:cut[k+1]]})
			}
		}
	}
	return chunks
}

// BenchmarkPublishRound times one live round on the paper-scale fleet:
// the seed-42 campaign's logs are staged with their last 240 hours held
// back, the monitor catches up on the backlog, and each operation appends
// the next held-back hour and runs one poll round — tail, rebuild and
// publish — to its new snapshot. The appends are not timed.
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

	// The follower calls the ticker only after a round's publish, so a
	// receive on ready marks a finished round.
	ready, step := make(chan struct{}), make(chan struct{})
	m, err := New(dir, WithController("02-04"), WithTicker(func(ctx context.Context) bool {
		select {
		case ready <- struct{}{}:
		case <-ctx.Done():
			return false
		}
		select {
		case <-step:
			return true
		case <-ctx.Done():
			return false
		}
	}))
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var runErr error
	exited := make(chan struct{})
	go func() { runErr = m.Run(ctx); close(exited) }()
	defer func() {
		cancel()
		<-exited
		if runErr != nil {
			b.Error(runErr)
		}
	}()
	round := func() {
		select {
		case <-ready:
		case <-exited:
			b.Fatal("monitor stopped")
		}
	}
	round() // the catch-up

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, c := range chunks[i] {
			f, err := os.OpenFile(filepath.Join(dir, c.name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.Write(c.data); err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		select {
		case step <- struct{}{}:
		case <-exited:
			b.Fatal("monitor stopped")
		}
		round()
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
}
