package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public function it calls. Spans of one operation share
// Op; Parent is the enclosing span's ID (0 for an operation's root).
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"` // since the tracer started
	EndUS   int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced operations run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Op: op, ID: id, Parent: parent, Name: name,
		StartUS: start.Sub(t.t0).Microseconds(), EndUS: end.Sub(t.t0).Microseconds(),
	})
	return id
}

// begin opens a span that children can name as their parent before it
// ends; end closes it.
func (t *tracer) begin(op, parent int, name string) int {
	now := time.Now()
	return t.add(op, parent, name, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUS = time.Since(t.t0).Microseconds()
}

// every returns t on even operations and nil on odd ones: a traced run
// alternates traced and untraced operations, and the difference between
// the two medians is the tracing overhead.
func (t *tracer) every(op int) *tracer {
	if op%2 == 0 {
		return t
	}
	return nil
}

// coverage is the share of the workload operations' root spans that
// their direct children cover: how much of the measured time the traced
// layers account for.
func (t *tracer) coverage() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := map[int]bool{}
	var total, covered int64
	for _, s := range t.spans {
		if s.Op > 0 && s.Parent == 0 {
			roots[s.ID] = true
			total += s.EndUS - s.StartUS
		}
	}
	for _, s := range t.spans {
		if roots[s.Parent] {
			covered += s.EndUS - s.StartUS
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// write saves the spans as one JSON document.
func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
