// Package logstore manages the study's on-disk log layout: one log file
// per node, exactly as the prototype's tooling kept them ("log entries are
// stored in log files with each node having a separate log file", §II-B).
// It writes canonical eventlog lines and reads whole directories back into
// the extraction pipeline, so every analysis can run from files rather
// than from an in-memory campaign — the paper's actual workflow.
package logstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"unprotected/internal/cluster"
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

// Option configures the file I/O of Export, Parts and Events.
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
