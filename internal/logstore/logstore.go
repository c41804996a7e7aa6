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
	"io/fs"
	"path/filepath"
	"strings"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/iofault"
)

// FileName returns the per-node log file name ("node-02-04.log").
func FileName(id cluster.NodeID) string {
	return "node-" + id.String() + ".log"
}

// nodeOfFile inverts FileName: a file is a node's only when its base
// name is exactly FileName(node), so "node-1-1.log" is no node's file.
func nodeOfFile(name string) (cluster.NodeID, bool) {
	base := filepath.Base(name)
	s, ok := strings.CutPrefix(strings.TrimSuffix(base, ".log"), "node-")
	if !ok {
		return cluster.NodeID{}, false
	}
	id, err := cluster.ParseNodeID(s)
	return id, err == nil && FileName(id) == base
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

// ListNodeFiles returns the node log files in dir, sorted by node.
func ListNodeFiles(dir string) ([]string, error) {
	return listNodeFiles(context.Background(), iofault.OS, dir)
}

// listNodeFiles lists dir itself through fsys, retrying a transient
// ReadDir failure under iofault.DefaultRetry, and returns its node log
// files. A subdirectory is not read. ReadDir sorts by file name, and
// FileName zero-pads both coordinates, so the files come in (Blade, SoC)
// order.
func listNodeFiles(ctx context.Context, fsys iofault.FS, dir string) ([]string, error) {
	var entries []fs.DirEntry
	err := iofault.DefaultRetry.Do(ctx, func() (err error) {
		entries, err = fsys.ReadDir(dir)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("logstore: %w", err)
	}
	var out []string
	for _, ent := range entries {
		if _, ok := nodeOfFile(ent.Name()); ok && !ent.IsDir() {
			out = append(out, filepath.Join(dir, ent.Name()))
		}
	}
	return out, nil
}

// lines is eventlog.Lines under the node rule: every record of a node's
// file names that node. A record whose host= names another node fails
// with its line number, as a malformed line does, so both readers key
// their state by one node per file.
func lines(data []byte, line *int, node cluster.NodeID, visit func(eventlog.Record) bool) (int, error) {
	var foreign cluster.NodeID
	bad := false
	done, err := eventlog.Lines(data, line, func(rec eventlog.Record) bool {
		if rec.Host != node {
			foreign, bad = rec.Host, true
			return false
		}
		return visit(rec)
	})
	if err == nil && bad {
		err = fmt.Errorf("line %d: host=%s in node %s's file", *line, foreign, node)
	}
	return done, err
}
