package faultstore

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"

	"unprotected/internal/iofault"
)

// QuarantineDir is the store subdirectory fsck -repair moves corrupt
// segments into: the bytes are preserved for forensics, the manifest
// stops referencing them, and queries never see them again.
const QuarantineDir = "quarantine"

// FsckIssue is one referenced segment that failed verification.
type FsckIssue struct {
	Segment string
	Err     error
}

// FsckReport is the result of one store check (and, with WithRepair,
// the actions taken).
type FsckReport struct {
	// SegmentsChecked counts the manifest-referenced segments verified.
	SegmentsChecked int
	// Corrupt lists referenced segments that are missing, unreadable,
	// CRC-invalid, or inconsistent with their index entry.
	Corrupt []FsckIssue
	// Orphans lists files in the store directory that look like store
	// state but are referenced by nothing: segments left by a crashed
	// pre-commit ingest or compact, and a stranded MANIFEST.tmp.
	Orphans []string
	// Quarantined, Removed and ManifestRewritten record what -repair
	// did: corrupt segments moved under quarantine/, orphans deleted,
	// and the manifest rewritten without the quarantined references.
	Quarantined       []string
	Removed           []string
	ManifestRewritten bool
}

// Clean reports whether the store verified with no findings (after
// repair, whether what remains is consistent).
func (r *FsckReport) Clean() bool {
	return len(r.Corrupt) == 0 && len(r.Orphans) == 0
}

// String renders the human-readable report cmd/faultstore prints.
func (r *FsckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d segment(s) checked", r.SegmentsChecked)
	if r.Clean() && len(r.Quarantined) == 0 && len(r.Removed) == 0 {
		b.WriteString(", store clean")
		return b.String()
	}
	for _, c := range r.Corrupt {
		fmt.Fprintf(&b, "\ncorrupt: %s: %v", c.Segment, c.Err)
	}
	for _, o := range r.Orphans {
		fmt.Fprintf(&b, "\norphan: %s", o)
	}
	for _, q := range r.Quarantined {
		fmt.Fprintf(&b, "\nquarantined: %s -> %s/", q, QuarantineDir)
	}
	for _, d := range r.Removed {
		fmt.Fprintf(&b, "\nremoved orphan: %s", d)
	}
	if r.ManifestRewritten {
		b.WriteString("\nmanifest rewritten without quarantined segments")
	}
	return b.String()
}

// FsckOption configures Fsck.
type FsckOption func(*fsckOptions) error

type fsckOptions struct {
	repair bool
}

// WithRepair makes Fsck act on its findings: corrupt segments are moved
// into quarantine/ and dropped from the manifest (a durable rewrite),
// orphan files are deleted. Without it Fsck only reports.
func WithRepair() FsckOption {
	return func(o *fsckOptions) error {
		o.repair = true
		return nil
	}
}

// Fsck verifies the store at dir: every manifest-referenced segment must
// exist, decode (magic, layout, CRC) and agree with its index entry, and
// every store-shaped file on disk must be referenced. Pre-commit crashes
// leave orphan segments (the manifest never adopted them) and possibly a
// stranded MANIFEST.tmp — both are findings, not errors: the committed
// state is intact, the crash just left litter. With WithRepair the
// litter is deleted, corrupt segments are quarantined and the manifest
// is rewritten so the store verifies clean again (minus the quarantined
// data, which a degraded read would have skipped anyway).
//
// A missing or corrupt manifest is an error, not a finding: without the
// index there is nothing to verify against.
func Fsck(dir string, opts ...FsckOption) (*FsckReport, error) {
	var o fsckOptions
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	man, err := readManifest(context.Background(), iofault.OS, dir)
	if err != nil {
		return nil, err
	}

	rep := &FsckReport{}
	referenced := make(map[string]bool, len(man.segs))
	corrupt := make(map[string]bool)
	for i := range man.segs {
		e := &man.segs[i]
		referenced[e.name] = true
		rep.SegmentsChecked++
		if err := verifySegment(iofault.OS, dir, e); err != nil {
			rep.Corrupt = append(rep.Corrupt, FsckIssue{Segment: e.name, Err: err})
			corrupt[e.name] = true
		}
	}

	entries, err := iofault.OS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("faultstore: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue // quarantine/ and anything else nested is not store state
		}
		if (strings.HasSuffix(name, ".seg") && !referenced[name]) || name == ManifestName+".tmp" {
			rep.Orphans = append(rep.Orphans, name)
		}
	}
	slices.Sort(rep.Orphans)

	if !o.repair || rep.Clean() {
		return rep, nil
	}

	// Repair: quarantine what the manifest references but cannot trust,
	// rewrite the manifest without it, delete the litter.
	if len(corrupt) > 0 {
		qdir := filepath.Join(dir, QuarantineDir)
		if err := iofault.OS.MkdirAll(qdir, 0o755); err != nil {
			return rep, fmt.Errorf("faultstore: repair: %w", err)
		}
		for _, c := range rep.Corrupt {
			err := iofault.OS.Rename(filepath.Join(dir, c.Segment), filepath.Join(qdir, c.Segment))
			switch {
			case err == nil:
				rep.Quarantined = append(rep.Quarantined, c.Segment)
			case errors.Is(err, fs.ErrNotExist):
				// Nothing on disk to preserve; dropping the reference is
				// the whole repair.
			default:
				return rep, fmt.Errorf("faultstore: repair: %w", err)
			}
		}
		man.segs = slices.DeleteFunc(man.segs, func(e segMeta) bool { return corrupt[e.name] })
		if err := writeManifest(iofault.OS, dir, man); err != nil {
			return rep, fmt.Errorf("faultstore: repair: %w", err)
		}
		rep.ManifestRewritten = true
	}
	for _, name := range rep.Orphans {
		if err := iofault.OS.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return rep, fmt.Errorf("faultstore: repair: %w", err)
		}
		rep.Removed = append(rep.Removed, name)
	}
	return rep, nil
}

// verifySegment checks one referenced segment file against its index
// entry: readable, decodable (magic, layout, CRC) and consistent with
// what the manifest claims about it. It reads as every segment read
// does, through readSegmentFile, so a transient error is retried before
// it can mark a healthy segment corrupt.
func verifySegment(fsys iofault.FS, dir string, e *segMeta) error {
	p, err := readSegmentFile(context.Background(), fsys, filepath.Join(dir, e.name))
	if err != nil {
		return err
	}
	switch {
	case p.shard != e.shard:
		return fmt.Errorf("index mismatch: segment says shard %d, manifest says %d", p.shard, e.shard)
	case p.window != e.window:
		return fmt.Errorf("index mismatch: segment says window %d, manifest says %d", p.window, e.window)
	case len(p.faults) != e.nFaults:
		return fmt.Errorf("index mismatch: segment holds %d faults, manifest says %d", len(p.faults), e.nFaults)
	case len(p.sessions) != e.nSessions:
		return fmt.Errorf("index mismatch: segment holds %d sessions, manifest says %d", len(p.sessions), e.nSessions)
	}
	return nil
}
