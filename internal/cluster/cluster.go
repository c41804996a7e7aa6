// Package cluster models the prototype machine's topology and node roster.
//
// The prototype (§II-A) has system-on-chip nodes with 2 ARM cores, 4 GB of
// ECC-less LPDDR and a GPU. 15 SoCs form a blade, 9 blades a chassis,
// 4 chassis a rack, 2 racks the system: 72 blades, 1080 nodes. One chassis
// (9 blades) was dedicated to another study; 9 nodes served as login nodes;
// a handful had permanent hardware failures. 923 nodes were continuously
// scanned from February 2015 to February 2016.
package cluster

import (
	"fmt"
	"sort"
	"strconv"

	"unprotected/internal/timebase"
)

// Geometry constants of the prototype.
const (
	SoCsPerBlade     = 15
	BladesPerChassis = 9
	ChassisPerRack   = 4
	Racks            = 2
	TotalBlades      = Racks * ChassisPerRack * BladesPerChassis // 72
	TotalNodes       = TotalBlades * SoCsPerBlade                // 1080
	ScanTargetBytes  = 3 << 30                                   // scanner asks for 3 GB
)

// Role classifies why a node does or does not participate in the study.
type Role int

const (
	// Scanned nodes take part in the memory-error characterization.
	Scanned Role = iota
	// Login nodes never run the scanner.
	Login
	// Excluded nodes belong to the chassis dedicated to another study.
	Excluded
	// Dead nodes had permanent hardware failures and were never scanned.
	Dead
)

func (r Role) String() string {
	switch r {
	case Scanned:
		return "scanned"
	case Login:
		return "login"
	case Excluded:
		return "excluded"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// NodeID identifies a node as (blade, SoC), both 1-based, rendered "BB-SS"
// as in the paper's node names (02-04, 04-05, 58-02).
type NodeID struct {
	Blade int // 1..72
	SoC   int // 1..15
}

// String renders the paper's "BB-SS" form.
func (id NodeID) String() string { return string(id.AppendText(make([]byte, 0, 8))) }

// AppendText appends the "BB-SS" form to b and returns the extended buffer.
// It is the allocation-free renderer behind String and the eventlog writer's
// host= field.
func (id NodeID) AppendText(b []byte) []byte {
	b = appendPad2(b, id.Blade)
	b = append(b, '-')
	return appendPad2(b, id.SoC)
}

// appendPad2 appends v zero-padded to two digits, matching fmt's %02d for
// any int (values outside [0, 99] never occur in a valid NodeID but must
// still render unambiguously).
func appendPad2(b []byte, v int) []byte {
	if v >= 0 && v < 100 {
		return append(b, byte('0'+v/10), byte('0'+v%10))
	}
	return strconv.AppendInt(b, int64(v), 10)
}

// Index returns a dense zero-based index over all 1080 node slots.
func (id NodeID) Index() int { return (id.Blade-1)*SoCsPerBlade + (id.SoC - 1) }

// NodeIDFromIndex inverts Index.
func NodeIDFromIndex(i int) NodeID {
	return NodeID{Blade: i/SoCsPerBlade + 1, SoC: i%SoCsPerBlade + 1}
}

// ParseNodeID parses the "BB-SS" form: decimal digits, a dash, decimal
// digits, nothing else (the previous fmt.Sscanf implementation accidentally
// tolerated signs, inner whitespace and trailing garbage).
func ParseNodeID(s string) (NodeID, error) {
	id, ok := parseNodeID(s)
	if !ok {
		return NodeID{}, fmt.Errorf("cluster: bad node id %q", s)
	}
	if id.Blade < 1 || id.Blade > TotalBlades || id.SoC < 1 || id.SoC > SoCsPerBlade {
		return NodeID{}, fmt.Errorf("cluster: node id %q out of range", s)
	}
	return id, nil
}

// ParseNodeIDBytes is ParseNodeID over a byte slice; it allocates only on
// the error path, making it safe for zero-allocation log parsing loops. The
// slice is neither retained nor modified.
func ParseNodeIDBytes(s []byte) (NodeID, error) {
	id, ok := parseNodeID(s)
	if !ok {
		return NodeID{}, fmt.Errorf("cluster: bad node id %q", s)
	}
	if id.Blade < 1 || id.Blade > TotalBlades || id.SoC < 1 || id.SoC > SoCsPerBlade {
		return NodeID{}, fmt.Errorf("cluster: node id %q out of range", s)
	}
	return id, nil
}

func parseNodeID[T string | []byte](s T) (NodeID, bool) {
	dash := -1
	for i := 0; i < len(s); i++ {
		if s[i] == '-' {
			dash = i
			break
		}
	}
	if dash < 0 {
		return NodeID{}, false
	}
	b, ok1 := atoiSmall(s[:dash])
	c, ok2 := atoiSmall(s[dash+1:])
	if !ok1 || !ok2 {
		return NodeID{}, false
	}
	return NodeID{Blade: b, SoC: c}, true
}

// atoiSmall parses a non-negative decimal with a cap generous enough for
// any in-range blade/SoC number; values past the cap report failure rather
// than overflowing (the caller range-checks anyway).
func atoiSmall[T string | []byte](s T) (int, bool) {
	if len(s) == 0 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int(d)
		if n > 1<<20 {
			return 0, false
		}
	}
	return n, true
}

// Chassis returns the 1-based chassis number (1..8) of a blade.
func Chassis(blade int) int { return (blade-1)/BladesPerChassis + 1 }

// Rack returns the 1-based rack number (1..2) of a blade.
func Rack(blade int) int { return (blade-1)/(BladesPerChassis*ChassisPerRack) + 1 }

// Outage is a half-open window [From, To) during which a node is powered
// off and cannot scan.
type Outage struct {
	From, To timebase.T
	Reason   string
}

// Node is one SoC in the roster.
type Node struct {
	ID      NodeID
	Role    Role
	Outages []Outage
}

// Available reports whether the node can run the scanner at time t: it must
// be a Scanned node outside all outage windows.
func (n *Node) Available(t timebase.T) bool {
	if n.Role != Scanned {
		return false
	}
	for _, o := range n.Outages {
		if t >= o.From && t < o.To {
			return false
		}
	}
	return true
}

// Topology is the full roster plus derived index structures.
type Topology struct {
	Nodes []*Node // dense, indexed by NodeID.Index()
}

// Config controls roster construction. The zero value is not useful; use
// PaperTopology for the prototype as described in §II-A/§III-A.
type Config struct {
	// ExcludedChassis is the 1-based chassis dedicated to another study.
	ExcludedChassis int
	// LoginNodes lists nodes reserved as login nodes.
	LoginNodes []NodeID
	// DeadNodes lists nodes with permanent hardware failures (never scanned).
	DeadNodes []NodeID
	// SoC12OffFrom is when system administrators powered off the
	// overheating SoC-12 positions for long periods (zero disables).
	SoC12OffFrom timebase.T
	// SoC12OffTo closes the SoC-12 outage window.
	SoC12OffTo timebase.T
	// Blade33Outage is the hardware-issue shutdown of blade 33.
	Blade33Outage *Outage
}

// PaperTopology reproduces the roster of the study:
//   - chassis 8 (blades 64..72) excluded for another project (−135 nodes)
//   - SoC 1 of blades 1..9 reserved as login nodes (−9)
//   - 13 nodes dead from permanent hardware failures (−13)
//
// leaving 923 continuously scanned nodes out of 1080.
func PaperTopology() *Topology {
	cfg := Config{
		ExcludedChassis: 8,
		SoC12OffFrom:    timebase.FromTime(timebase.Epoch.AddDate(0, 4, 0)), // June 2015
		SoC12OffTo:      timebase.T(timebase.StudySeconds),
		Blade33Outage: &Outage{
			From:   timebase.FromTime(timebase.Epoch.AddDate(0, 5, 14)),
			To:     timebase.FromTime(timebase.Epoch.AddDate(0, 7, 20)),
			Reason: "blade 33 hardware issues",
		},
	}
	for b := 1; b <= 9; b++ {
		cfg.LoginNodes = append(cfg.LoginNodes, NodeID{Blade: b, SoC: 1})
	}
	// 13 permanently failed nodes, spread over the machine. Positions are
	// arbitrary but fixed so figures are reproducible.
	dead := []NodeID{
		{5, 7}, {11, 3}, {14, 9}, {19, 15}, {22, 6}, {27, 11}, {31, 2},
		{38, 14}, {41, 8}, {46, 4}, {52, 10}, {57, 13}, {61, 5},
	}
	cfg.DeadNodes = dead
	return NewTopology(cfg)
}

// NewTopology builds a roster from cfg.
func NewTopology(cfg Config) *Topology {
	topo := &Topology{Nodes: make([]*Node, TotalNodes)}
	login := make(map[NodeID]bool, len(cfg.LoginNodes))
	for _, id := range cfg.LoginNodes {
		login[id] = true
	}
	dead := make(map[NodeID]bool, len(cfg.DeadNodes))
	for _, id := range cfg.DeadNodes {
		dead[id] = true
	}
	for i := 0; i < TotalNodes; i++ {
		id := NodeIDFromIndex(i)
		n := &Node{ID: id, Role: Scanned}
		switch {
		case cfg.ExcludedChassis != 0 && Chassis(id.Blade) == cfg.ExcludedChassis:
			n.Role = Excluded
		case login[id]:
			n.Role = Login
		case dead[id]:
			n.Role = Dead
		}
		if n.Role == Scanned {
			if id.SoC == 12 && cfg.SoC12OffTo > cfg.SoC12OffFrom {
				n.Outages = append(n.Outages, Outage{
					From: cfg.SoC12OffFrom, To: cfg.SoC12OffTo,
					Reason: "SoC 12 overheating policy",
				})
			}
			if cfg.Blade33Outage != nil && id.Blade == 33 {
				n.Outages = append(n.Outages, *cfg.Blade33Outage)
			}
		}
		topo.Nodes[i] = n
	}
	return topo
}

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) *Node { return t.Nodes[id.Index()] }

// Clone returns a deep copy of the topology: fresh Node values with
// independent outage slices. The campaign engine records profile-driven
// monitoring gaps onto its topology's nodes, so runs that would otherwise
// share one instance — the scenarios of a parameter sweep, or repeated
// campaigns over one Config — must each work on their own clone.
func (t *Topology) Clone() *Topology {
	cp := &Topology{Nodes: make([]*Node, len(t.Nodes))}
	for i, n := range t.Nodes {
		nn := *n
		nn.Outages = append([]Outage(nil), n.Outages...)
		cp.Nodes[i] = &nn
	}
	return cp
}

// ScannedNodes returns the nodes participating in the study, ordered by
// index for deterministic iteration.
func (t *Topology) ScannedNodes() []*Node {
	var out []*Node
	for _, n := range t.Nodes {
		if n.Role == Scanned {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Index() < out[j].ID.Index() })
	return out
}

// CountByRole tallies the roster.
func (t *Topology) CountByRole() map[Role]int {
	m := make(map[Role]int)
	for _, n := range t.Nodes {
		m[n.Role]++
	}
	return m
}

// MonitoredBlades returns the blade numbers that appear in the paper's heat
// maps: every blade outside the excluded chassis (63 blades).
func (t *Topology) MonitoredBlades() []int {
	seen := make(map[int]bool)
	var out []int
	for _, n := range t.Nodes {
		if n.Role == Excluded {
			continue
		}
		if !seen[n.ID.Blade] {
			seen[n.ID.Blade] = true
			out = append(out, n.ID.Blade)
		}
	}
	sort.Ints(out)
	return out
}
