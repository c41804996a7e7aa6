// Package fdlimit meters open file descriptors across the module's
// storage layers. The log layer (internal/logstore: Export's per-node
// writes and Follow's tails) and the binary fault store
// (internal/faultstore, which opens segment files while answering
// queries) draw their descriptors from one Budget, so a process that
// exports or tails logs while serving store queries stays under a single
// configurable ceiling instead of independent ones that can add up past
// the OS limit.
//
// A Budget is a counting limiter, not a cache: callers Acquire before
// opening a file and Release after closing it. The two holder classes
// acquire differently. A component that caches open files indefinitely
// (the follow-mode tailer, the one such holder) calls TryAcquire — or
// its blocking form AcquireCached — and evicts its own least-recently-used
// entry when the budget is exhausted; components with transient opens
// (the log exporter, segment readers) block in Acquire until a descriptor
// frees up. Cached holds never release on their own, so a budget can
// reserve headroom for the transient class: TryAcquire/AcquireCached stop
// at cap minus the reserve, while Acquire may use the full cap. Without a
// reserve, an idle cache holding every token would block transient
// acquirers forever. MaxInUse records the high-water mark, which is what
// the regression tests pin.
package fdlimit

import "sync"

// DefaultCap is the default descriptor ceiling of the shared budget: a
// full campaign has 923 nodes, which would flirt with common descriptor
// limits if every per-node file stayed open.
const DefaultCap = 128

// DefaultReserve is the shared budget's headroom withheld from
// cache-style holders, so transient opens (log export, segment readers)
// always find descriptors that are guaranteed to cycle back.
const DefaultReserve = 8

// Budget meters a fixed number of concurrently open file descriptors.
// All methods are safe for concurrent use.
type Budget struct {
	mu       sync.Mutex
	cond     *sync.Cond
	cap      int
	reserve  int
	inUse    int
	maxInUse int
}

// NewBudget returns a budget with the given ceiling (minimum 1) and no
// reserve; use NewReservedBudget or SetReserve when cache-style and
// transient holders share it.
func NewBudget(cap int) *Budget {
	return NewReservedBudget(cap, 0)
}

// NewReservedBudget returns a budget with the given ceiling (minimum 1)
// that withholds reserve tokens from cache-style holders.
func NewReservedBudget(cap, reserve int) *Budget {
	b := &Budget{cap: max(cap, 1), reserve: max(reserve, 0)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Shared is the process-wide default budget, drawn on by logstore's
// exporter and follower and by faultstore segment readers unless a caller
// installs a private one. The reserve keeps the transient holders live
// even when a follower's cached tails fill their share and sit idle.
var Shared = NewReservedBudget(DefaultCap, DefaultReserve)

// SetCap adjusts the ceiling (minimum 1). Lowering it below the current
// in-use count does not revoke held descriptors; it only blocks new
// acquisitions until enough are released.
func (b *Budget) SetCap(n int) {
	b.mu.Lock()
	b.cap = max(n, 1)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Cap returns the current ceiling.
func (b *Budget) Cap() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cap
}

// SetReserve adjusts the headroom withheld from cache-style holders
// (minimum 0). The cached ceiling never drops below one descriptor.
func (b *Budget) SetReserve(n int) {
	b.mu.Lock()
	b.reserve = max(n, 0)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// cachedCapLocked is the ceiling cache-style holders may claim up to:
// the cap minus the transient reserve, but never below one so a lone
// cached holder can always make progress.
func (b *Budget) cachedCapLocked() int {
	return max(b.cap-b.reserve, 1)
}

// TryAcquire claims one descriptor for a cache-style (indefinite) hold
// if the budget allows, reporting whether it did. It never blocks and
// never dips into the transient reserve.
func (b *Budget) TryAcquire() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.inUse >= b.cachedCapLocked() {
		return false
	}
	b.claimLocked()
	return true
}

// AcquireCached is the blocking form of TryAcquire, for cache-style
// holders that have nothing of their own left to evict: it waits for
// another holder's release but still never dips into the transient
// reserve.
func (b *Budget) AcquireCached() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.inUse >= b.cachedCapLocked() {
		b.cond.Wait()
	}
	b.claimLocked()
}

// Acquire claims one descriptor for a transient hold, blocking until the
// budget allows it. Transient holds may use the full cap, including the
// reserve: they release promptly, so waiting on them always terminates.
func (b *Budget) Acquire() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.inUse >= b.cap {
		b.cond.Wait()
	}
	b.claimLocked()
}

func (b *Budget) claimLocked() {
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
	// Broadcast, not Signal: cached and transient waiters share the
	// condition but wake at different thresholds, and a single Signal
	// could land on a waiter whose threshold is still unmet.
	b.cond.Broadcast()
}

// InUse returns the number of currently claimed descriptors.
func (b *Budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inUse
}

// MaxInUse returns the high-water mark of claimed descriptors since the
// budget was created or the mark was last reset.
func (b *Budget) MaxInUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.maxInUse
}

// ResetMaxInUse rewinds the high-water mark to the current in-use count,
// so a test can meter one phase in isolation.
func (b *Budget) ResetMaxInUse() {
	b.mu.Lock()
	b.maxInUse = b.inUse
	b.mu.Unlock()
}
