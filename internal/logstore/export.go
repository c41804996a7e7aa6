package logstore

import (
	"sort"

	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

// Export writes a dataset in the prototype's on-disk layout: one log file
// per node with START/ERROR/END lines in time order. ERROR lines carry the
// independent faults (one line per fault — the raw multi-million-record
// stream would be gigabytes and adds nothing the extraction keeps). Each
// line's last=/logs= fields record the collapsed run's extent and raw
// volume, so Events reconstructs the exact fault set, including per-fault
// raw-log weights. WithFS routes every file operation through an
// iofault.FS.
func Export(sessions []eventlog.Session, faults []extract.Fault, dir string, opts ...Option) error {
	store, err := NewStore(dir, opts...)
	if err != nil {
		return err
	}
	type ev struct {
		at  timebase.T
		rec eventlog.Record
	}
	perNode := make(map[cluster.NodeID][]ev)
	for _, s := range sessions {
		perNode[s.Host] = append(perNode[s.Host], ev{s.From, eventlog.Record{
			Kind: eventlog.KindStart, At: s.From, Host: s.Host, AllocBytes: s.AllocBytes,
			TempC: thermal.NoReading,
		}})
		if !s.Truncated {
			perNode[s.Host] = append(perNode[s.Host], ev{s.To, eventlog.Record{
				Kind: eventlog.KindEnd, At: s.To, Host: s.Host, TempC: thermal.NoReading,
			}})
		}
	}
	for _, f := range faults {
		perNode[f.Node] = append(perNode[f.Node], ev{f.FirstAt, eventlog.Record{
			Kind: eventlog.KindError, At: f.FirstAt, Host: f.Node,
			VAddr:  dram.VirtAddr(f.Addr),
			Actual: f.Actual, Expected: f.Expected,
			TempC:    f.TempC,
			PhysPage: dram.PhysPage(uint64(f.Node.Index()), f.Addr),
			LastAt:   f.LastAt, Logs: max(f.Logs, 1),
		}})
	}
	for _, evs := range perNode {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
		for _, e := range evs {
			if err := store.Append(e.rec); err != nil {
				store.Close()
				return err
			}
		}
	}
	return store.Close()
}
