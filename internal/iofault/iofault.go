// Package iofault is the injectable I/O seam under the storage layers.
// The paper's premise is that hardware fails silently and at scale; the
// same adversarial stance applies to the filesystem the study's own
// persistence sits on. Every I/O call the fault store and the log store
// perform goes through the FS interface: production code uses the OS
// passthrough, chaos tests swap in an Injector that fails, tears or
// halts operations on a deterministic schedule — so crash-consistency
// and degraded-read behavior are provable, not aspirational.
//
// The package also hosts the storage layers' one open rule — Open,
// OpenFile and ReadFile, which keep every log and segment file under one
// descriptor ceiling and retry transient errors under DefaultRetry (an
// EMFILE blip must not kill a replay, an EIO blip must not kill a query)
// — and Transient, which decides what is worth retrying.
package iofault

import (
	"io"
	"io/fs"
	"os"
)

// File is the open-file surface the storage layers need: sequential
// reads for the log loader, writes and fsync for the log writer, and
// seeking for the follow-mode tailer, which opens a node file afresh
// every round and must resume at the offset it had already consumed.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.Seeker
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
}

// FS is the I/O seam. Implementations: OS (passthrough, the default
// everywhere) and Injector (deterministic fault schedule, tests only).
// All paths are interpreted exactly as the os package would.
type FS interface {
	// ReadFile reads the named file whole.
	ReadFile(name string) ([]byte, error)
	// WriteFile writes data to the named file, creating it if needed.
	// It does not fsync; pair it with Sync for durability.
	WriteFile(name string, data []byte, perm fs.FileMode) error
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// OpenFile is the generalized open (the log writer's append path).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath — the commit
	// primitive of the manifest swap.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// MkdirAll creates the directory and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists the named directory, sorted by filename.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Stat describes the named file. The follow-mode tailer polls it to
	// detect growth (size past the consumed offset), truncation (size
	// regression) and replacement (os.SameFile false against the last
	// result), the last two of which force a re-read from zero. An FS
	// over the OS returns the os package's FileInfo, which SameFile
	// needs.
	Stat(name string) (fs.FileInfo, error)
	// Sync opens the named file or directory and fsyncs it: the only
	// way to make a just-written file's bytes — or a directory's entry
	// table after a create or rename — durable before proceeding.
	Sync(name string) error
}

// OpenAppendFlags is the log writer's open mode: create if missing,
// write-only, append-at-end.
const OpenAppendFlags = os.O_CREATE | os.O_WRONLY | os.O_APPEND

// OS is the passthrough FS every storage layer defaults to.
var OS FS = osFS{}

// osFS forwards every operation to the os package.
type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

func (osFS) Sync(name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
