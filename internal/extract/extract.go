// Package extract implements the error-extraction methodology of §II-C.
//
// The scanner logs every mismatch it sees, so one faulty cell showing the
// same wrong value for thousands of consecutive passes produces thousands
// of ERROR records that all share a single root cause. Extraction collapses
// such consecutive records (same node, address and corruption pattern,
// small time gap) into one *independent memory fault* — the unit every
// analysis in the paper counts.
//
// Extraction also performs the simultaneity grouping of §III-C: faults
// first observed in the same scan iteration of the same node are treated as
// one multi-region event (the per-node notion of a multi-bit error), which
// is how the paper discovered that single-bit ECC counters would badly
// misrepresent failure structure.
package extract

import (
	"cmp"
	"sort"

	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

// RawRun is a maximal run of consecutive ERROR records sharing one root
// cause: same node, same address, same corruption pattern, adjacent in
// time. The campaign's fast-forward session simulator produces runs
// directly; real scanner logs are collapsed into runs by Collapser.
type RawRun struct {
	Node     cluster.NodeID
	Addr     dram.Addr
	FirstAt  timebase.T
	LastAt   timebase.T
	Logs     int // raw ERROR records in the run
	Expected uint32
	Actual   uint32
	TempC    float64 // temperature at first observation (NoReading if none)
}

// Fault is one independent memory error with its derived classification.
type Fault struct {
	RawRun
	// Bits is the set of corrupted logical bit positions.
	Bits dram.BitSet
	// Ones2Zeros/Zeros2Ones split Bits by flip direction.
	Ones2Zeros dram.BitSet
	Zeros2Ones dram.BitSet
}

// Classify derives the fault view of a run.
func Classify(r RawRun) Fault {
	diff := r.Expected ^ r.Actual
	return Fault{
		RawRun:     r,
		Bits:       dram.BitSet(diff),
		Ones2Zeros: dram.BitSet(r.Expected & diff),
		Zeros2Ones: dram.BitSet(r.Actual & diff),
	}
}

// BitCount returns the number of corrupted bits in the word.
func (f Fault) BitCount() int { return f.Bits.Count() }

// MultiBit reports whether the fault corrupts more than one bit of the
// word (the paper's standard definition of a multi-bit error).
func (f Fault) MultiBit() bool { return f.BitCount() > 1 }

// HasTemp reports whether the fault carries temperature telemetry.
func (f Fault) HasTemp() bool { return thermal.HasReading(f.TempC) }

// DefaultGap is the time tolerance for collapsing records into a run. The
// scanner only observes a persistent discharge on pattern phases matching
// the stuck state, so "consecutive" manifestations can be one or two scan
// iterations apart; 60 s covers several iterations of a 3 GB scan.
const DefaultGap = 60 // seconds

// Columns is struct-of-arrays storage for raw runs: one backing slice
// per RawRun field. Accumulating column-wise costs eight amortized slice
// appends per run instead of one heap object per fault, and Reset keeps
// every column's capacity for the next batch — the Collapser's finished
// runs live here so replaying a million-record file allocates only
// logarithmically many column growths.
type Columns struct {
	Node     []cluster.NodeID
	Addr     []dram.Addr
	FirstAt  []timebase.T
	LastAt   []timebase.T
	Logs     []int
	Expected []uint32
	Actual   []uint32
	TempC    []float64
}

// Len returns the number of stored runs.
func (c *Columns) Len() int { return len(c.Addr) }

// Append stores one run column-wise.
func (c *Columns) Append(r RawRun) {
	c.Node = append(c.Node, r.Node)
	c.Addr = append(c.Addr, r.Addr)
	c.FirstAt = append(c.FirstAt, r.FirstAt)
	c.LastAt = append(c.LastAt, r.LastAt)
	c.Logs = append(c.Logs, r.Logs)
	c.Expected = append(c.Expected, r.Expected)
	c.Actual = append(c.Actual, r.Actual)
	c.TempC = append(c.TempC, r.TempC)
}

// Row materializes run i as a RawRun value.
func (c *Columns) Row(i int) RawRun {
	return RawRun{
		Node: c.Node[i], Addr: c.Addr[i], FirstAt: c.FirstAt[i],
		LastAt: c.LastAt[i], Logs: c.Logs[i],
		Expected: c.Expected[i], Actual: c.Actual[i], TempC: c.TempC[i],
	}
}

// AppendRows materializes every stored run onto dst, in storage order.
func (c *Columns) AppendRows(dst []RawRun) []RawRun {
	for i := range c.Addr {
		dst = append(dst, c.Row(i))
	}
	return dst
}

// Reset truncates every column, keeping its capacity.
func (c *Columns) Reset() {
	c.Node = c.Node[:0]
	c.Addr = c.Addr[:0]
	c.FirstAt = c.FirstAt[:0]
	c.LastAt = c.LastAt[:0]
	c.Logs = c.Logs[:0]
	c.Expected = c.Expected[:0]
	c.Actual = c.Actual[:0]
	c.TempC = c.TempC[:0]
}

// Collapser streams eventlog records into runs. Feed records of a single
// node in time order (per-node log files guarantee this); Close drains
// every run and resets the collapser, so one instance (or a pooled one —
// see Reset) can process file after file without reallocating.
//
// Internally runs never exist as individual heap objects: finished runs
// accumulate in struct-of-arrays Columns, and still-open runs live in a
// reusable slab indexed by address, with freed slots recycled.
type Collapser struct {
	Gap  timebase.T          // maximum FirstAt..next gap within a run, seconds
	open map[dram.Addr]int32 // address → slot in slab
	slab []RawRun            // open-run storage; free slots are recycled
	free []int32             // slab slots available for reuse
	done Columns
	raw  int64
}

// NewCollapser returns a collapser with the default gap tolerance.
func NewCollapser() *Collapser {
	return &Collapser{Gap: DefaultGap, open: make(map[dram.Addr]int32)}
}

// slot returns a free slab index, recycling closed runs' slots.
func (c *Collapser) slot() int32 {
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free = c.free[:n-1]
		return s
	}
	c.slab = append(c.slab, RawRun{})
	return int32(len(c.slab) - 1)
}

// Observe consumes one record; non-ERROR records are ignored.
func (c *Collapser) Observe(rec eventlog.Record) {
	if rec.Kind != eventlog.KindError {
		return
	}
	addr, err := dram.AddrOfVirt(rec.VAddr)
	if err != nil {
		// Unmappable addresses cannot be grouped; count them as their own
		// single-record runs keyed by a synthesized address.
		addr = dram.Addr(rec.VAddr & 0x7fffffff)
	}
	if rec.Logs > 0 {
		// Pre-collapsed record (logs=/last= fields): the §II-C extraction
		// was already applied when this line was written, so it maps to
		// exactly one run, verbatim. Re-applying the gap heuristic here
		// would merge faults the original extraction deemed independent.
		c.raw += int64(rec.Logs)
		if i, ok := c.open[addr]; ok {
			c.done.Append(c.slab[i])
			c.free = append(c.free, i)
			delete(c.open, addr)
		}
		last := rec.LastAt
		if last < rec.At {
			last = rec.At
		}
		c.done.Append(RawRun{
			Node: rec.Host, Addr: addr, FirstAt: rec.At, LastAt: last,
			Logs: rec.Logs, Expected: rec.Expected, Actual: rec.Actual,
			TempC: rec.TempC,
		})
		return
	}
	c.raw++
	i, ok := c.open[addr]
	if ok {
		run := &c.slab[i]
		if run.Expected^run.Actual == rec.Expected^rec.Actual && rec.At-run.LastAt <= c.Gap {
			run.LastAt = rec.At
			run.Logs++
			return
		}
		c.done.Append(*run)
	} else {
		i = c.slot()
		c.open[addr] = i
	}
	c.slab[i] = RawRun{
		Node: rec.Host, Addr: addr, FirstAt: rec.At, LastAt: rec.At, Logs: 1,
		Expected: rec.Expected, Actual: rec.Actual, TempC: rec.TempC,
	}
}

// Close flushes open runs and returns every run in first-seen order along
// with the raw record count, then resets the collapser for reuse. The
// returned slice is freshly allocated and owned by the caller.
func (c *Collapser) Close() ([]RawRun, int64) {
	out, raw := c.Snapshot()
	c.Reset()
	return out, raw
}

// Snapshot returns every run as Close would — finished runs plus the
// still-open ones flushed as-if-closed, sorted the same way — without
// mutating the collapser: subsequent Observes keep extending the open
// runs. It is the follow-mode serving core's view of a node mid-tail,
// and at quiescence it is exactly what Close would have returned. The
// returned slice is freshly allocated and owned by the caller.
func (c *Collapser) Snapshot() ([]RawRun, int64) {
	out := c.done.AppendRows(make([]RawRun, 0, c.done.Len()+len(c.open)))
	for _, i := range c.open {
		out = append(out, c.slab[i])
	}
	// The open set is a map: the sort below dominates its iteration order,
	// so two snapshots of identical state are identical slices.
	sort.Slice(out, func(i, j int) bool {
		if out[i].FirstAt != out[j].FirstAt {
			return out[i].FirstAt < out[j].FirstAt
		}
		return out[i].Addr < out[j].Addr
	})
	return out, c.raw
}

// Reset returns the collapser to its empty state, keeping every backing
// allocation (columns, slab, address map) for the next batch of records.
func (c *Collapser) Reset() {
	clear(c.open)
	c.slab = c.slab[:0]
	c.free = c.free[:0]
	c.done.Reset()
	c.raw = 0
}

// Faults classifies a slice of runs.
func Faults(runs []RawRun) []Fault {
	out := make([]Fault, len(runs))
	for i, r := range runs {
		out[i] = Classify(r)
	}
	return out
}

// Compare is the canonical total order over faults: (time, node, address,
// pattern, extent, temperature). Every field participates so the order is
// identical no matter how parallel simulation interleaved the input (two
// glitches can corrupt the same address in the same iteration with
// different patterns, so the key must go all the way down); Compare
// returns 0 only for faults that are equal in every observable field. The
// campaign's k-way merge relies on this totality: per-node streams sorted
// by Compare merge into one canonical global sequence.
func Compare(a, b *Fault) int {
	switch {
	case a.FirstAt != b.FirstAt:
		return cmp.Compare(a.FirstAt, b.FirstAt)
	case a.Node.Blade != b.Node.Blade:
		// (Blade, SoC) matches Index() order on valid IDs but stays
		// injective on arbitrary ones, keeping the order truly total.
		return cmp.Compare(a.Node.Blade, b.Node.Blade)
	case a.Node.SoC != b.Node.SoC:
		return cmp.Compare(a.Node.SoC, b.Node.SoC)
	case a.Addr != b.Addr:
		return cmp.Compare(a.Addr, b.Addr)
	case a.Expected != b.Expected:
		return cmp.Compare(a.Expected, b.Expected)
	case a.Actual != b.Actual:
		return cmp.Compare(a.Actual, b.Actual)
	case a.LastAt != b.LastAt:
		return cmp.Compare(a.LastAt, b.LastAt)
	case a.Logs != b.Logs:
		return cmp.Compare(a.Logs, b.Logs)
	default:
		// TempC is a plain float (NoReading sentinel, never NaN), so this
		// final tiebreak keeps the order total.
		return cmp.Compare(a.TempC, b.TempC)
	}
}

// Key is Compare's leading key, the first observation time: Key(a) <
// Key(b) implies Compare(a, b) < 0, so a merge may order faults by Key
// and call Compare only when two keys are equal.
func Key(f *Fault) int64 { return int64(f.FirstAt) }

// SortFaults orders faults by the canonical Compare key.
func SortFaults(fs []Fault) {
	sort.Slice(fs, func(i, j int) bool { return Compare(&fs[i], &fs[j]) < 0 })
}

// Group is a set of faults first observed in the same scan iteration of
// the same node — the paper's "simultaneous corruptions" (§III-C).
type Group struct {
	Node   cluster.NodeID
	At     timebase.T
	Faults []Fault
}

// TotalBits returns the number of corrupted bits across the whole group
// (the paper saw one event corrupt 36 bits across different words).
func (g Group) TotalBits() int {
	total := 0
	for _, f := range g.Faults {
		total += f.BitCount()
	}
	return total
}

// MaxWordBits returns the largest per-word bit count in the group.
func (g Group) MaxWordBits() int {
	max := 0
	for _, f := range g.Faults {
		if n := f.BitCount(); n > max {
			max = n
		}
	}
	return max
}

// Groups buckets faults into simultaneity groups. Faults must not be
// mutated afterwards; group membership shares the input slice's values.
func Groups(fs []Fault) []Group {
	type key struct {
		node cluster.NodeID
		at   timebase.T
	}
	idx := make(map[key]int)
	var out []Group
	for _, f := range fs {
		k := key{f.Node, f.FirstAt}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, Group{Node: f.Node, At: f.FirstAt})
		}
		out[i].Faults = append(out[i].Faults, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Node.Index() < out[j].Node.Index()
	})
	return out
}

// Grouper buckets a fault stream into simultaneity groups incrementally.
// It requires the canonical Compare order (or any order where faults of one
// (node, FirstAt) key are contiguous): every time the key changes, the
// finished group is handed to emit. This is the streaming counterpart of
// Groups for one-pass replay pipelines. Call Flush after the last fault.
type Grouper struct {
	emit func(Group)
	cur  Group
	live bool
}

// NewGrouper returns a grouper delivering completed groups to emit.
func NewGrouper(emit func(Group)) *Grouper {
	return &Grouper{emit: emit}
}

// Observe consumes the next fault of a canonically ordered stream.
func (g *Grouper) Observe(f Fault) {
	if g.live && (g.cur.Node != f.Node || g.cur.At != f.FirstAt) {
		g.emit(g.cur)
		g.live = false
	}
	if !g.live {
		g.cur = Group{Node: f.Node, At: f.FirstAt}
		g.live = true
	}
	g.cur.Faults = append(g.cur.Faults, f)
}

// Pending returns the group still open, the one Flush would emit, and
// whether there is one. The group's Faults are the grouper's own and must
// not be modified.
func (g *Grouper) Pending() (Group, bool) { return g.cur, g.live }

// Flush emits the trailing group, if any.
func (g *Grouper) Flush() {
	if g.live {
		g.emit(g.cur)
		g.live = false
		g.cur = Group{}
	}
}

// SimultaneityStats are the §III-C aggregates.
type SimultaneityStats struct {
	// FaultsInGroups counts faults that co-occurred with at least one
	// other fault on the same node (paper: >26,000).
	FaultsInGroups int
	// SingleBitOnly counts co-occurring faults where every member of the
	// group is single-bit (paper: >99.9% of the above).
	SingleBitOnly int
	// DoubleWithSingle counts double-bit faults co-occurring with a
	// single-bit fault elsewhere (paper: 44).
	DoubleWithSingle int
	// TripleWithSingle counts triple-bit faults co-occurring with a
	// single-bit fault (paper: 2).
	TripleWithSingle int
	// DoubleDoublePairs counts groups containing two double-bit faults
	// (paper: 1).
	DoubleDoublePairs int
	// MaxGroupBits is the largest total corrupted bits in one group
	// (paper: 36).
	MaxGroupBits int
}

// Observe folds one completed group into the aggregates. Streaming
// consumers pair it with a Grouper; Simultaneity applies it to a slice.
func (s *SimultaneityStats) Observe(g Group) {
	if tb := g.TotalBits(); tb > s.MaxGroupBits {
		s.MaxGroupBits = tb
	}
	if len(g.Faults) < 2 {
		return
	}
	s.FaultsInGroups += len(g.Faults)
	allSingle := true
	singles, doubles, triples := 0, 0, 0
	for _, f := range g.Faults {
		switch f.BitCount() {
		case 1:
			singles++
		case 2:
			doubles++
			allSingle = false
		case 3:
			triples++
			allSingle = false
		default:
			allSingle = false
		}
	}
	if allSingle {
		s.SingleBitOnly += len(g.Faults)
	}
	if doubles > 0 && singles > 0 {
		s.DoubleWithSingle += doubles
	}
	if triples > 0 && singles > 0 {
		s.TripleWithSingle += triples
	}
	if doubles >= 2 {
		s.DoubleDoublePairs += doubles / 2
	}
}

// Merge folds o, the aggregates of a disjoint set of groups, into s: the
// counts add and the maximum is kept, so any partition of the groups
// merges to the aggregates of the whole.
func (s *SimultaneityStats) Merge(o SimultaneityStats) {
	s.FaultsInGroups += o.FaultsInGroups
	s.SingleBitOnly += o.SingleBitOnly
	s.DoubleWithSingle += o.DoubleWithSingle
	s.TripleWithSingle += o.TripleWithSingle
	s.DoubleDoublePairs += o.DoubleDoublePairs
	s.MaxGroupBits = max(s.MaxGroupBits, o.MaxGroupBits)
}

// Simultaneity computes the §III-C aggregates over groups.
func Simultaneity(groups []Group) SimultaneityStats {
	var s SimultaneityStats
	for _, g := range groups {
		s.Observe(g)
	}
	return s
}
