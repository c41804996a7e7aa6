package iofault

import (
	"context"
	"io/fs"
)

// MaxOpen is the process's descriptor ceiling: at most this many files
// opened through Open, OpenFile and ReadFile are open at once. A full
// campaign has 923 node files, which would flirt with common descriptor
// limits if every one stayed open.
const MaxOpen = 128

// slots holds one token per open file, MaxOpen at most.
var slots = make(chan struct{}, MaxOpen)

// Open opens name for reading through fsys under the one open rule of
// the storage layers: the file holds one of MaxOpen descriptor slots
// until it is closed, and a transient failure is retried under
// DefaultRetry until ctx is done.
func Open(ctx context.Context, fsys FS, name string) (File, error) {
	f, err := slotted(ctx, func() (File, error) { return fsys.Open(name) })
	if err != nil {
		return nil, err
	}
	return &slotFile{File: f}, nil
}

// OpenFile is Open for the generalized open (the log writer's append
// path).
func OpenFile(ctx context.Context, fsys FS, name string, flag int, perm fs.FileMode) (File, error) {
	f, err := slotted(ctx, func() (File, error) { return fsys.OpenFile(name, flag, perm) })
	if err != nil {
		return nil, err
	}
	return &slotFile{File: f}, nil
}

// ReadFile reads name whole through fsys under the open rule: it holds
// one descriptor slot while it reads, and retries a transient failure
// under DefaultRetry until ctx is done.
func ReadFile(ctx context.Context, fsys FS, name string) ([]byte, error) {
	data, err := slotted(ctx, func() ([]byte, error) { return fsys.ReadFile(name) })
	if err != nil {
		return nil, err
	}
	<-slots
	return data, nil
}

// slotted waits for a descriptor slot, or for ctx to be done, then runs
// op under DefaultRetry. A failed op frees the slot; a successful one
// hands it to the caller. Every holder in the module frees its slot
// before the function that took it returns, so a wait always ends.
func slotted[T any](ctx context.Context, op func() (T, error)) (T, error) {
	var v T
	select {
	case slots <- struct{}{}:
	case <-ctx.Done():
		return v, ctx.Err()
	}
	err := DefaultRetry.Do(ctx, func() (err error) {
		v, err = op()
		return err
	})
	if err != nil {
		<-slots
	}
	return v, err
}

// slotFile is a File that frees its descriptor slot when it is first
// closed.
type slotFile struct {
	File
	closed bool
}

// Close closes the file and frees its slot. A second Close frees
// nothing and reports fs.ErrClosed.
func (f *slotFile) Close() error {
	if f.closed {
		return fs.ErrClosed
	}
	f.closed = true
	err := f.File.Close()
	<-slots
	return err
}
