package logstore

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"

	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/iofault"
	"unprotected/internal/thermal"
)

// FaultRecord renders a fault in the canonical ERROR line shape. The
// last=/logs= fields carry the collapsed run's extent and raw volume, so
// a replay reconstructs the fault exactly instead of re-collapsing it.
func FaultRecord(f extract.Fault) eventlog.Record {
	return eventlog.Record{
		Kind: eventlog.KindError, At: f.FirstAt, Host: f.Node,
		VAddr:  dram.VirtAddr(f.Addr),
		Actual: f.Actual, Expected: f.Expected,
		TempC:    f.TempC,
		PhysPage: dram.PhysPage(uint64(f.Node.Index()), f.Addr),
		LastAt:   f.LastAt, Logs: max(f.Logs, 1),
	}
}

// AppendSessionRecords appends a session's START/END pair to dst (END
// omitted for hard reboots, which never logged one) and returns the
// extended slice. Sessions carry no temperature, so the records say
// temp=NA — a zero TempC would fabricate a 0°C reading.
func AppendSessionRecords(dst []eventlog.Record, s eventlog.Session) []eventlog.Record {
	dst = append(dst, eventlog.Record{
		Kind: eventlog.KindStart, At: s.From, Host: s.Host, AllocBytes: s.AllocBytes,
		TempC: thermal.NoReading,
	})
	if !s.Truncated {
		dst = append(dst, eventlog.Record{
			Kind: eventlog.KindEnd, At: s.To, Host: s.Host, TempC: thermal.NoReading,
		})
	}
	return dst
}

// Export writes a dataset in the prototype's on-disk layout: one log file
// per node with START/ERROR/END lines in time order. ERROR lines carry the
// independent faults (one line per fault — the raw multi-million-record
// stream would be gigabytes and adds nothing the extraction keeps). Each
// line's last=/logs= fields record the collapsed run's extent and raw
// volume, so Events reconstructs the exact fault set, including per-fault
// raw-log weights.
//
// Export is the layout's one writer. It writes one node at a time, in
// node order: the node's records are built in a reused buffer and
// stable-sorted by time (on equal instants session lines stay ahead of
// ERROR lines), then appended to the node's file, which it opens through
// iofault.OpenFile and closes before the next node, so an export holds a
// single descriptor slot whatever the fleet size and rides out a
// transient open failure. Every record goes to its own node's file, so
// the directory keeps the node rule. WithFS routes every file operation
// through an iofault.FS.
func Export(sessions []eventlog.Session, faults []extract.Fault, dir string, opts ...Option) error {
	o, err := resolve(opts)
	if err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	if err := o.fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	type nodeIdx struct{ sessions, faults []int }
	byNode := make(map[cluster.NodeID]*nodeIdx)
	node := func(id cluster.NodeID) *nodeIdx {
		n, ok := byNode[id]
		if !ok {
			n = new(nodeIdx)
			byNode[id] = n
		}
		return n
	}
	for i := range sessions {
		n := node(sessions[i].Host)
		n.sessions = append(n.sessions, i)
	}
	for i := range faults {
		n := node(faults[i].Node)
		n.faults = append(n.faults, i)
	}
	nodes := make([]cluster.NodeID, 0, len(byNode))
	for id := range byNode {
		nodes = append(nodes, id)
	}
	slices.SortFunc(nodes, func(a, b cluster.NodeID) int {
		return cmp.Or(cmp.Compare(a.Blade, b.Blade), cmp.Compare(a.SoC, b.SoC))
	})

	var recs []eventlog.Record
	for _, id := range nodes {
		n := byNode[id]
		recs = recs[:0]
		for _, i := range n.sessions {
			recs = AppendSessionRecords(recs, sessions[i])
		}
		for _, i := range n.faults {
			recs = append(recs, FaultRecord(faults[i]))
		}
		slices.SortStableFunc(recs, func(a, b eventlog.Record) int { return cmp.Compare(a.At, b.At) })
		if err := appendNodeFile(o.fsys, filepath.Join(dir, FileName(id)), recs); err != nil {
			return err
		}
	}
	return nil
}

// appendNodeFile appends recs to the node file at path.
func appendNodeFile(fsys iofault.FS, path string, recs []eventlog.Record) error {
	f, err := iofault.OpenFile(context.TODO(), fsys, path, iofault.OpenAppendFlags, 0o644)
	if err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	w := eventlog.NewWriter(f)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			f.Close()
			return fmt.Errorf("logstore: %w", err)
		}
	}
	if err := errors.Join(w.Flush(), f.Close()); err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	return nil
}
