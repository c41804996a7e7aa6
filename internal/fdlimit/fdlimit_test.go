package fdlimit

import (
	"sync"
	"testing"
)

func TestBudgetAcquireBlocksUntilRelease(t *testing.T) {
	b := NewBudget(1)
	b.Acquire()
	done := make(chan struct{})
	go func() {
		b.Acquire()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Acquire returned while the budget was exhausted")
	default:
	}
	b.Release()
	<-done
	b.Release()
	if got := b.InUse(); got != 0 {
		t.Fatalf("InUse = %d, want 0", got)
	}
}

// TestBudgetConcurrentHighWater hammers one small budget from many
// goroutines: the high-water mark must never exceed the cap.
func TestBudgetConcurrentHighWater(t *testing.T) {
	const cap = 5
	b := NewBudget(cap)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Acquire()
				b.Release()
			}
		}()
	}
	wg.Wait()
	if got := b.MaxInUse(); got > cap {
		t.Fatalf("MaxInUse = %d, want <= %d", got, cap)
	}
	if got := b.InUse(); got != 0 {
		t.Fatalf("InUse = %d, want 0 after all releases", got)
	}
}

// TestBudgetFloorAndReset pins NewBudget's floor: a non-positive cap
// still grants one descriptor.
func TestBudgetFloorAndReset(t *testing.T) {
	b := NewBudget(-3)
	if b.cap != 1 {
		t.Fatalf("cap = %d, want floor 1", b.cap)
	}
	b.Acquire()
	b.Release()
}

func TestBudgetReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire did not panic")
		}
	}()
	NewBudget(1).Release()
}
