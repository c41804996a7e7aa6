package stream

import (
	"context"
	"runtime"
	"sync"
)

// Collect runs load(0) … load(n-1) on at most workers goroutines (0 or
// less means GOMAXPROCS) and returns the n results in index order. It is
// the one worker pool behind the built-in batch sources — the campaign's
// node simulations, the log replay's file loads and the fault store's
// segment decodes — so all three share its rules:
//
//   - Units are handed out in index order and results land at their own
//     index, so the returned slice never depends on scheduling.
//   - A failing unit stops the pool from starting any unit above it; units
//     already running finish, and Collect returns the error of the lowest
//     failing unit. Since every unit below a started one has started too,
//     that is the same error for any worker count.
//   - Cancelling ctx stops the pool from starting further units, and
//     Collect returns ctx.Err() — ahead of any unit error — only after
//     every worker has exited, so an abandoned source leaks nothing. A
//     load that blocks should watch ctx itself.
func Collect[T any](ctx context.Context, n, workers int, load func(i int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]T, n)
	var (
		mu      sync.Mutex
		next    int
		failAt  = n // lowest failing index so far; n while none has failed
		failErr error
		wg      sync.WaitGroup
	)
	// claim hands out the next index, or false once the units run out, one
	// below the next index has failed, or ctx is done.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= failAt || ctx.Err() != nil {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := claim(); ok; i, ok = claim() {
				v, err := load(i)
				if err != nil {
					mu.Lock()
					if i < failAt {
						failAt, failErr = i, err
					}
					mu.Unlock()
					continue // the next claim fails: i is below it
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if failErr != nil {
		return nil, failErr
	}
	return out, nil
}
