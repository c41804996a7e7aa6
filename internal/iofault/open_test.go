package iofault

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestOpenHoldsSlotUntilClose: with MaxOpen files open through Open, the
// next Open waits until one of them closes, and a wait whose context is
// done gives up with the context's error.
func TestOpenHoldsSlotUntilClose(t *testing.T) {
	name := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(name, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	open := make([]File, 0, MaxOpen)
	defer func() {
		for _, f := range open {
			f.Close()
		}
	}()
	for range MaxOpen {
		f, err := Open(ctx, OS, name)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, f)
	}
	if got := len(slots); got != MaxOpen {
		t.Fatalf("%d slots held with %d files open", got, MaxOpen)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := ReadFile(cctx, OS, name); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadFile past the ceiling with a done context: %v, want context.Canceled", err)
	}

	next := make(chan File)
	go func() {
		f, err := Open(ctx, OS, name)
		if err != nil {
			t.Error(err)
		}
		next <- f
	}()
	select {
	case <-next:
		t.Fatal("Open returned with every slot held")
	case <-time.After(50 * time.Millisecond):
	}
	if err := open[0].Close(); err != nil {
		t.Fatal(err)
	}
	open[0] = <-next
	got, err := io.ReadAll(open[0])
	if err != nil || string(got) != "x" {
		t.Fatalf("read %q, %v", got, err)
	}
}

// TestFailedOpenFreesSlot: an Open, OpenFile or ReadFile that fails past
// the retry policy leaves every slot as it found it, and one that fails
// transiently fewer times than the policy allows succeeds.
func TestFailedOpenFreesSlot(t *testing.T) {
	name := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(name, []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	held := len(slots)

	in := NewInjector(OS)
	in.FailPath(name, -1, nil)
	if _, err := Open(ctx, in, name); !errors.Is(err, ErrInjected) {
		t.Fatalf("Open: %v, want the injected error", err)
	}
	if _, err := OpenFile(ctx, in, name, OpenAppendFlags, 0o644); !errors.Is(err, ErrInjected) {
		t.Fatalf("OpenFile: %v, want the injected error", err)
	}
	if _, err := ReadFile(ctx, in, name); !errors.Is(err, ErrInjected) {
		t.Fatalf("ReadFile: %v, want the injected error", err)
	}
	if got := in.Ops(); got != 3*uint64(DefaultRetry.Attempts) {
		t.Fatalf("%d operations, want %d attempts each", got, DefaultRetry.Attempts)
	}
	if got := len(slots); got != held {
		t.Fatalf("%d slots held after failed opens, want %d", got, held)
	}
	if _, err := Open(ctx, OS, filepath.Join(t.TempDir(), "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open of a missing file: %v", err)
	}

	in = NewInjector(OS)
	in.FailPath(name, DefaultRetry.Attempts-1, nil)
	data, err := ReadFile(ctx, in, name)
	if err != nil || string(data) != "data" {
		t.Fatalf("ReadFile after transient failures: %q, %v", data, err)
	}
	in.FailPath(name, DefaultRetry.Attempts-1, nil)
	w, err := OpenFile(ctx, in, name, OpenAppendFlags, 0o644)
	if err != nil {
		t.Fatalf("OpenFile after transient failures: %v", err)
	}
	if got := len(slots); got != held+1 {
		t.Fatalf("%d slots held with one file open, want %d", got, held+1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(slots); got != held {
		t.Fatalf("%d slots held after Close, want %d", got, held)
	}
}

// TestSecondCloseFreesNothing: a file's slot is freed by its first
// Close; a second Close reports an error and leaves the slots alone.
func TestSecondCloseFreesNothing(t *testing.T) {
	name := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(name, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	held := len(slots)
	f, err := Open(ctx, OS, name)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Open(ctx, OS, name)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, fs.ErrClosed) {
		t.Fatalf("second Close: %v, want fs.ErrClosed", err)
	}
	if got := len(slots); got != held+1 {
		t.Fatalf("%d slots held with one file still open, want %d", got, held+1)
	}
}
