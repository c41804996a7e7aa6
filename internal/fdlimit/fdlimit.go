// Package fdlimit meters open file descriptors across the module's
// storage layers. The log layer (internal/logstore: Export's per-node
// writes and Follow's per-round reads) and the binary fault store
// (internal/faultstore, which opens segment files while answering
// queries) draw their descriptors from one Budget, so a process that
// exports or tails logs while serving store queries stays under a single
// configurable ceiling instead of independent ones that can add up past
// the OS limit.
//
// A Budget is a counting limiter, not a cache: callers Acquire before
// opening a file and Release after closing it, and every holder in the
// module closes its file before the function that opened it returns. A
// holder blocked in Acquire therefore always waits on a release that is
// coming. MaxInUse records the high-water mark, which is what the
// regression tests pin.
package fdlimit

import "sync"

// DefaultCap is the default descriptor ceiling of the shared budget: a
// full campaign has 923 nodes, which would flirt with common descriptor
// limits if every per-node file stayed open.
const DefaultCap = 128

// Budget meters a fixed number of concurrently open file descriptors.
// All methods are safe for concurrent use.
type Budget struct {
	mu       sync.Mutex
	cond     *sync.Cond
	cap      int
	inUse    int
	maxInUse int
}

// NewBudget returns a budget with the given ceiling (minimum 1).
func NewBudget(cap int) *Budget {
	b := &Budget{cap: max(cap, 1)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Shared is the process-wide default budget, drawn on by logstore's
// exporter and follower and by faultstore segment readers unless a caller
// installs a private one.
var Shared = NewBudget(DefaultCap)

// Acquire claims one descriptor, blocking until the budget allows it.
func (b *Budget) Acquire() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.inUse >= b.cap {
		b.cond.Wait()
	}
	b.inUse++
	if b.inUse > b.maxInUse {
		b.maxInUse = b.inUse
	}
}

// Release returns one descriptor to the budget. Releasing more than was
// acquired panics: it means a double-close style accounting bug.
func (b *Budget) Release() {
	b.mu.Lock()
	if b.inUse <= 0 {
		b.mu.Unlock()
		panic("fdlimit: Release without matching Acquire")
	}
	b.inUse--
	b.mu.Unlock()
	// One release frees one token and every waiter waits for the same
	// threshold, so waking one waiter is enough.
	b.cond.Signal()
}

// InUse returns the number of currently claimed descriptors.
func (b *Budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inUse
}

// MaxInUse returns the high-water mark of claimed descriptors since the
// budget was created.
func (b *Budget) MaxInUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.maxInUse
}
