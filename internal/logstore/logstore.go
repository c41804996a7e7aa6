// Package logstore manages the study's on-disk log layout: one log file
// per node, exactly as the prototype's tooling kept them ("log entries are
// stored in log files with each node having a separate log file", §II-B).
// It writes canonical eventlog lines and reads whole directories back into
// the extraction pipeline, so every analysis can run from files rather
// than from an in-memory campaign — the paper's actual workflow.
package logstore

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/fdlimit"
	"unprotected/internal/iofault"
)

// FileName returns the per-node log file name ("node-02-04.log").
func FileName(id cluster.NodeID) string {
	return "node-" + id.String() + ".log"
}

// nodeOfFile inverts FileName.
func nodeOfFile(name string) (cluster.NodeID, bool) {
	base := strings.TrimSuffix(filepath.Base(name), ".log")
	s, ok := strings.CutPrefix(base, "node-")
	if !ok {
		return cluster.NodeID{}, false
	}
	id, err := cluster.ParseNodeID(s)
	return id, err == nil
}

// DefaultMaxOpenFiles bounds the store's simultaneously open node files:
// a full campaign has 923 nodes, which would flirt with common descriptor
// limits if every file stayed open. Evicted files are reopened with
// O_APPEND on the next write, so callers never notice. The cap is the
// shared fdlimit budget's: log writers and fault-store segment readers
// meter their descriptors from one pool.
const DefaultMaxOpenFiles = fdlimit.DefaultCap

// Store writes per-node log files under a directory. All methods are safe
// for concurrent use: a daemon keeps one Store alive indefinitely while
// other goroutines read its counters (Reopens, NodeCount), so the writer
// cache and its accounting are guarded by one mutex rather than relying
// on a documented single-writer discipline. Records of one node must
// still arrive in time order, which under concurrent Appends means every
// writer of a given node serializes its own calls.
type Store struct {
	// mu guards every mutable field below; Append holds it across the
	// whole write so eviction, reopen accounting and the LRU clock stay
	// consistent.
	mu  sync.Mutex
	dir string
	// fsys carries every file operation; retry covers the writer's
	// OpenFile, so a transient descriptor blip (EMFILE from a neighbour
	// process) backs off and recovers instead of killing the replay.
	fsys  iofault.FS
	retry iofault.RetryPolicy
	// budget meters the open node files. It defaults to fdlimit.Shared —
	// one process-wide descriptor pool spanning log writers and
	// fault-store segment readers — and SetMaxOpenFiles swaps in a
	// private budget for callers that need an isolated cap.
	budget  *fdlimit.Budget
	writers map[cluster.NodeID]*nodeFile
	seen    map[cluster.NodeID]bool
	// paths caches each node's rendered file path: under a tight open-file
	// budget the same file is reopened on every eviction cycle, and the
	// merge-ordered append stream re-renders the name far more often than
	// once per node.
	paths   map[cluster.NodeID]string
	clock   uint64 // advances per Append; stamps nodeFile.lastUse
	reopens int
}

type nodeFile struct {
	f       iofault.File
	w       *eventlog.Writer
	lastUse uint64
}

// Option configures the file I/O of NewStore, Export and Events.
type Option func(*options) error

// options is the resolved Option set.
type options struct {
	fsys iofault.FS
}

// WithFS routes every file operation through fsys instead of the OS
// passthrough — the seam the chaos tests inject faults through.
func WithFS(fsys iofault.FS) Option {
	return func(o *options) error {
		if fsys == nil {
			return errors.New("nil FS")
		}
		o.fsys = fsys
		return nil
	}
}

// resolve applies opts over the defaults.
func resolve(opts []Option) (options, error) {
	o := options{fsys: iofault.OS}
	for _, opt := range opts {
		if opt == nil {
			return o, errors.New("nil Option")
		}
		if err := opt(&o); err != nil {
			return o, err
		}
	}
	return o, nil
}

// NewStore creates (or reuses) the directory. WithFS routes every file
// operation of the store through an iofault.FS.
func NewStore(dir string, opts ...Option) (*Store, error) {
	o, err := resolve(opts)
	if err != nil {
		return nil, fmt.Errorf("logstore: %w", err)
	}
	if err := o.fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("logstore: %w", err)
	}
	return &Store{
		dir:     dir,
		fsys:    o.fsys,
		retry:   iofault.DefaultRetry,
		budget:  fdlimit.Shared,
		writers: make(map[cluster.NodeID]*nodeFile),
		seen:    make(map[cluster.NodeID]bool),
		paths:   make(map[cluster.NodeID]string),
	}, nil
}

// SetRetry replaces the writer's transient-OpenFile retry policy.
func (s *Store) SetRetry(p iofault.RetryPolicy) {
	s.mu.Lock()
	s.retry = p
	s.mu.Unlock()
}

// path returns the node's log file path, rendering it at most once.
func (s *Store) path(id cluster.NodeID) string {
	p, ok := s.paths[id]
	if !ok {
		p = filepath.Join(s.dir, FileName(id))
		s.paths[id] = p
	}
	return p
}

// SetMaxOpenFiles gives the store a private descriptor budget with the
// given cap (minimum 1), detaching it from the shared fdlimit pool. Use
// SetBudget to share a specific budget instead.
func (s *Store) SetMaxOpenFiles(n int) {
	s.mu.Lock()
	s.budget = fdlimit.NewBudget(n)
	s.mu.Unlock()
}

// SetBudget makes the store meter its open files from b. The store must
// hold no open files yet (call it right after NewStore).
func (s *Store) SetBudget(b *fdlimit.Budget) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.writers) > 0 {
		panic("logstore: SetBudget with files already open")
	}
	s.budget = b
}

// acquireFD claims one descriptor from the budget, evicting the store's
// own least-recently-used open file while the pool is exhausted. When the
// store itself holds nothing evictable the tokens are held by other
// budget users (another writer, or fault-store segment readers) and it
// blocks until one frees — via AcquireCached, because the descriptor it
// claims goes into the writer cache indefinitely and must never consume
// the reserve that keeps transient readers live.
func (s *Store) acquireFD() error {
	for !s.budget.TryAcquire() {
		if len(s.writers) == 0 {
			s.budget.AcquireCached()
			return nil
		}
		if err := s.evictOne(); err != nil {
			return err
		}
	}
	return nil
}

// Append writes a record to its node's file, creating it on first use.
// Records of one node must arrive in time order (scanner order). Append
// is safe to call from multiple goroutines; calls serialize on the
// store's mutex.
func (s *Store) Append(rec eventlog.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	nf, ok := s.writers[rec.Host]
	if !ok {
		if err := s.acquireFD(); err != nil {
			return err
		}
		// A transient OpenFile failure — descriptor pressure from outside
		// this process, an EIO blip — backs off and retries rather than
		// aborting the whole replay; only a persistent or permanent error
		// surfaces.
		var f iofault.File
		err := s.retry.Do(context.Background(), func() error {
			var oerr error
			f, oerr = s.fsys.OpenFile(s.path(rec.Host),
				iofault.OpenAppendFlags, 0o644)
			return oerr
		})
		if err != nil {
			s.budget.Release()
			return fmt.Errorf("logstore: %w", err)
		}
		nf = &nodeFile{f: f, w: eventlog.NewWriter(f)}
		s.writers[rec.Host] = nf
		if s.seen[rec.Host] {
			s.reopens++
		}
		s.seen[rec.Host] = true
	}
	s.clock++
	nf.lastUse = s.clock
	return nf.w.Write(rec)
}

// evictOne flushes and closes the least-recently-used open file to stay
// under the budget. LRU matters because appends arrive in (time, node)
// merge order: a node writing a burst stays hot for many consecutive
// records, and evicting an arbitrary map entry used to close exactly such
// hot files, thrashing open/close cycles across wide campaigns.
func (s *Store) evictOne() error {
	var victim cluster.NodeID
	var nf *nodeFile
	for id, cand := range s.writers {
		if nf == nil || cand.lastUse < nf.lastUse {
			victim, nf = id, cand
		}
	}
	if nf == nil {
		return nil
	}
	if err := nf.w.Flush(); err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	if err := nf.f.Close(); err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	delete(s.writers, victim)
	s.budget.Release()
	return nil
}

// Reopens counts how many times an evicted node file had to be reopened —
// the cost metric of the eviction policy.
func (s *Store) Reopens() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reopens
}

// Close flushes and closes every node file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, nf := range s.writers {
		if err := nf.w.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := nf.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.budget.Release()
	}
	s.writers = make(map[cluster.NodeID]*nodeFile)
	return firstErr
}

// NodeCount reports how many distinct node files the store has written.
func (s *Store) NodeCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

// ListNodeFiles returns the node log files under dir, sorted by node.
func ListNodeFiles(dir string) ([]string, error) {
	return listNodeFiles(iofault.OS, dir)
}

// listNodeFiles walks dir through fsys (depth-first, directories
// recursed) and returns the node log files, sorted.
func listNodeFiles(fsys iofault.FS, dir string) ([]string, error) {
	var out []string
	var walk func(string) error
	walk = func(d string) error {
		entries, err := fsys.ReadDir(d)
		if err != nil {
			return err
		}
		for _, ent := range entries {
			path := filepath.Join(d, ent.Name())
			if ent.IsDir() {
				if err := walk(path); err != nil {
					return err
				}
				continue
			}
			if _, ok := nodeOfFile(path); ok {
				out = append(out, path)
			}
		}
		return nil
	}
	if err := walk(dir); err != nil {
		return nil, fmt.Errorf("logstore: %w", err)
	}
	sort.Strings(out)
	return out, nil
}
