package stream

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCollectIndexOrder: results land at their own index for any pool
// size, including one larger than the unit count, even when later units
// finish first.
func TestCollectIndexOrder(t *testing.T) {
	const n = 40
	for _, workers := range []int{1, 2, 4, n + 7} {
		got, err := Collect(context.Background(), n, workers, func(i int) (int, error) {
			if i%3 == 0 {
				time.Sleep(time.Duration(n-i) * 20 * time.Microsecond)
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestCollectLowestError: whichever of two failing units fails first —
// unit 5 before unit 2, or the reverse — Collect returns the lowest
// failing unit's error.
func TestCollectLowestError(t *testing.T) {
	errs := map[int]error{2: errors.New("unit 2"), 5: errors.New("unit 5")}
	for _, order := range [][2]int{{5, 2}, {2, 5}} {
		for _, workers := range []int{6, 8, 16} {
			var bothStarted sync.WaitGroup
			bothStarted.Add(2)
			firstFailed := make(chan struct{})
			_, err := Collect(context.Background(), 10, workers, func(i int) (int, error) {
				if errs[i] != nil {
					bothStarted.Done()
					bothStarted.Wait()
				}
				switch i {
				case order[0]:
					close(firstFailed)
					return 0, errs[i]
				case order[1]:
					// Fail only once the other unit has failed and its
					// worker has had time to record it.
					<-firstFailed
					time.Sleep(5 * time.Millisecond)
					return 0, errs[i]
				}
				return i, nil
			})
			if err != errs[2] {
				t.Fatalf("unit %d failing first, workers=%d: got %v, want %v", order[0], workers, err, errs[2])
			}
		}
	}
}

// TestCollectStopsAtFailure: with one worker, no unit above the failing
// one is started.
func TestCollectStopsAtFailure(t *testing.T) {
	boom := errors.New("boom")
	var started []int
	_, err := Collect(context.Background(), 10, 1, func(i int) (int, error) {
		started = append(started, i)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(started, want) {
		t.Fatalf("started %v, want %v", started, want)
	}
}

// waitForGoroutines polls until the goroutine count is back to baseline.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCollectCancel: a pre-cancelled context runs nothing, a mid-run
// cancel stops the pool early, both return context.Canceled, and no
// worker outlives Collect.
func TestCollectCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	if _, err := Collect(pre, 10, 4, func(i int) (int, error) {
		ran.Add(1)
		return i, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: got %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-cancelled: %d units ran", ran.Load())
	}

	const n = 200
	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	ran.Store(0)
	_, err := Collect(ctx, n, 4, func(i int) (int, error) {
		ran.Add(1)
		if i == 5 {
			cancelMid()
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Millisecond):
			return i, nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run: got %v, want context.Canceled", err)
	}
	if r := ran.Load(); r >= n {
		t.Fatalf("mid-run: all %d units ran after the cancel", r)
	}
	waitForGoroutines(t, baseline)
}

// TestCollectPeakConcurrency: no more than workers units (GOMAXPROCS for
// workers <= 0) ever run at once.
func TestCollectPeakConcurrency(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8} {
		limit := workers
		if limit <= 0 {
			limit = runtime.GOMAXPROCS(0)
		}
		var mu sync.Mutex
		running, peak := 0, 0
		_, err := Collect(context.Background(), 60, workers, func(i int) (int, error) {
			mu.Lock()
			running++
			peak = max(peak, running)
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
			mu.Lock()
			running--
			mu.Unlock()
			return i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if peak > limit {
			t.Fatalf("workers=%d: %d units ran at once, limit %d", workers, peak, limit)
		}
	}
}

// TestCollectEmpty: zero units return an empty result without calling
// load.
func TestCollectEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		got, err := Collect(context.Background(), 0, workers, func(i int) (int, error) {
			t.Errorf("load(%d) called with n = 0", i)
			return 0, nil
		})
		if err != nil || len(got) != 0 {
			t.Fatalf("workers=%d: got %v, %v; want empty, nil", workers, got, err)
		}
	}
}
