package dram

import (
	"testing"
	"testing/quick"

	"unprotected/internal/rng"
)

func TestBitSetBasics(t *testing.T) {
	b := BitSetOf(0, 5, 31)
	if b.Count() != 3 {
		t.Fatalf("count %d", b.Count())
	}
	pos := b.Positions()
	if len(pos) != 3 || pos[0] != 0 || pos[1] != 5 || pos[2] != 31 {
		t.Fatalf("positions %v", pos)
	}
	if BitSetOf(-1, 32).Count() != 0 {
		t.Fatal("out-of-range positions should be ignored")
	}
	if s := BitSetOf(1, 9, 10).String(); s != "{1,9,10}" {
		t.Fatalf("string %q", s)
	}
}

func TestBitSetConsecutive(t *testing.T) {
	cases := []struct {
		bits []int
		want bool
	}{
		{nil, true},
		{[]int{7}, true},
		{[]int{3, 4}, true},
		{[]int{3, 5}, false},
		{[]int{9, 10, 11}, true},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7}, true},
		{[]int{0, 2, 3}, false},
		{[]int{30, 31}, true},
	}
	for _, c := range cases {
		if got := BitSetOf(c.bits...).Consecutive(); got != c.want {
			t.Errorf("Consecutive(%v) = %v, want %v", c.bits, got, c.want)
		}
	}
}

func TestBitSetGaps(t *testing.T) {
	// Bits {1, 5, 17}: gaps of 3 and 11 (paper max), 14 in all.
	b := BitSetOf(1, 5, 17)
	if g := b.MaxGap(); g != 11 {
		t.Fatalf("max gap %d, want 11", g)
	}
	if g := b.GapBits(); g != 14 {
		t.Fatalf("gap bits %d, want 14", g)
	}
	if g := BitSetOf(0, 31).GapBits(); g != 30 {
		t.Fatalf("gap bits of {0,31} %d, want 30", g)
	}
	if BitSetOf(4).MaxGap() != 0 || BitSetOf(4).GapBits() != 0 || BitSetOf().GapBits() != 0 {
		t.Fatal("degenerate gaps should be 0")
	}
}

func TestBitSetCountPositionsProperty(t *testing.T) {
	f := func(v uint32) bool {
		b := BitSet(v)
		pos := b.Positions()
		if len(pos) != b.Count() {
			return false
		}
		var rebuilt BitSet
		for _, p := range pos {
			rebuilt |= 1 << uint(p)
		}
		return rebuilt == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScramblerBijection(t *testing.T) {
	s := NewScrambler()
	seen := make(map[int]bool)
	for p := 0; p < WordBits; p++ {
		l := s.ToLogical(p)
		if l < 0 || l >= WordBits || seen[l] {
			t.Fatalf("not a bijection at phys %d -> %d", p, l)
		}
		seen[l] = true
		if s.ToPhysical(l) != p {
			t.Fatalf("inverse broken at %d", p)
		}
	}
}

func TestScramblerAdjacencyStats(t *testing.T) {
	// Table I statistics: a minority of multi-bit errors are logically
	// consecutive; mean in-word distance ~3-4; max gap 11.
	s := NewScrambler()
	frac, mean, max := s.AdjacencyStats()
	if frac < adjFracConsecLo || frac > adjFracConsecHi {
		t.Fatalf("consecutive fraction %v outside [%v, %v]", frac, adjFracConsecLo, adjFracConsecHi)
	}
	if mean < adjMeanDiffLo || mean > adjMeanDiffHi {
		t.Fatalf("mean diff %v outside window", mean)
	}
	if max > adjMaxDiff {
		t.Fatalf("max diff %d > %d", max, adjMaxDiff)
	}
}

func TestScramblerDeterministic(t *testing.T) {
	a, b := NewScrambler(), NewScrambler()
	for p := 0; p < WordBits; p++ {
		if a.ToLogical(p) != b.ToLogical(p) {
			t.Fatal("scrambler search is not deterministic")
		}
	}
}

func TestPhysRun(t *testing.T) {
	s := NewScrambler()
	for k := 1; k <= 9; k++ {
		set := s.PhysRun(3, k)
		if set.Count() != k {
			t.Fatalf("PhysRun(3,%d) has %d bits", k, set.Count())
		}
	}
	if s.PhysRun(30, 5).Count() != 5 {
		t.Fatal("wrap-around run broken")
	}
}

func TestPolarityFraction(t *testing.T) {
	p := NewPolarityMap(99)
	trueCells := 0
	total := 0
	for node := uint64(0); node < 20; node++ {
		for addr := Addr(0); addr < 500; addr += 7 {
			for bit := 0; bit < WordBits; bit++ {
				total++
				if p.IsTrueCell(node, addr, bit) {
					trueCells++
				}
			}
		}
	}
	frac := float64(trueCells) / float64(total)
	if frac < 0.88 || frac > 0.92 {
		t.Fatalf("true-cell fraction %v, want ~0.90", frac)
	}
}

func TestPolarityDeterministic(t *testing.T) {
	p1 := NewPolarityMap(7)
	p2 := NewPolarityMap(7)
	for bit := 0; bit < WordBits; bit++ {
		if p1.IsTrueCell(3, 1234, bit) != p2.IsTrueCell(3, 1234, bit) {
			t.Fatal("polarity not deterministic")
		}
	}
}

func TestDischargeObserved(t *testing.T) {
	// A charged true cell storing 1 discharges to 0.
	cells := BitSetOf(4)
	truePol := BitSetOf(4)
	corrupted, o2z, z2o := DischargeObserved(0xFFFFFFFF, cells, truePol)
	if corrupted != 0xFFFFFFEF || o2z.Count() != 1 || z2o != 0 {
		t.Fatalf("true-cell discharge: %08x %v %v", corrupted, o2z, z2o)
	}
	// The same cell storing 0 is already discharged: no effect.
	corrupted, o2z, z2o = DischargeObserved(0x00000000, cells, truePol)
	if corrupted != 0 || o2z != 0 || z2o != 0 {
		t.Fatal("discharged true cell should be unobservable")
	}
	// An anti cell storing 0 is charged; discharge flips it to 1.
	corrupted, o2z, z2o = DischargeObserved(0x00000000, cells, 0)
	if corrupted != 0x10 || z2o.Count() != 1 || o2z != 0 {
		t.Fatalf("anti-cell discharge: %08x", corrupted)
	}
	// An anti cell storing 1 is already discharged.
	corrupted, _, _ = DischargeObserved(0xFFFFFFFF, cells, 0)
	if corrupted != 0xFFFFFFFF {
		t.Fatal("discharged anti cell should be unobservable")
	}
}

func TestAddrMapping(t *testing.T) {
	a := Addr(12345)
	v := VirtAddr(a)
	back, err := AddrOfVirt(v)
	if err != nil || back != a {
		t.Fatalf("round trip: %v %v", back, err)
	}
	if _, err := AddrOfVirt(3); err == nil {
		t.Fatal("bogus virtual address accepted")
	}
	if WordsOf(3<<30) != 805306368 {
		t.Fatalf("3GB words = %d", WordsOf(3<<30))
	}
	// Physical pages differ across nodes for the same address.
	if PhysPage(1, a) == PhysPage(2, a) {
		t.Fatal("page mapping should be node-dependent")
	}
}

func TestDeviceStrikeAndScan(t *testing.T) {
	dev := NewDevice(1, 1024, nil)
	dev.Fill(0xFFFFFFFF)
	// Find a word with a true-polarity bit so the strike is observable.
	var addr Addr
	var bit int
	found := false
	for a := Addr(0); a < 64 && !found; a++ {
		for b := 0; b < WordBits; b++ {
			if dev.Polarity.IsTrueCell(1, a, b) {
				addr, bit, found = a, b, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no true cell found (polarity broken)")
	}
	flipped := dev.Strike(addr, BitSetOf(bit))
	if flipped.Count() != 1 {
		t.Fatalf("strike flipped %v", flipped)
	}
	if dev.Read(addr) == 0xFFFFFFFF {
		t.Fatal("storage not mutated")
	}
	// A write recharges the cells.
	dev.Write(addr, 0xFFFFFFFF)
	if dev.Read(addr) != 0xFFFFFFFF {
		t.Fatal("write did not restore")
	}
}

func TestDeviceWeakCellTick(t *testing.T) {
	dev := NewDevice(2, 128, nil)
	dev.Fill(0xFFFFFFFF)
	var bit int = -1
	for b := 0; b < WordBits; b++ {
		if dev.Polarity.IsTrueCell(2, 7, b) {
			bit = b
			break
		}
	}
	if bit < 0 {
		t.Fatal("no true cell in word 7")
	}
	w := &WeakCell{Addr: 7, Bit: bit, LeakProb: 1.0, Active: false}
	dev.AddWeakCell(w)
	r := rng.New(3)
	if changed := dev.Tick(r); len(changed) != 0 {
		t.Fatal("inactive weak cell leaked")
	}
	w.Active = true
	changed := dev.Tick(r)
	if len(changed) != 1 || changed[0] != 7 {
		t.Fatalf("active weak cell: changed=%v", changed)
	}
	if len(dev.WeakCells()) != 1 {
		t.Fatal("weak cell registry")
	}
}

func TestDeviceBounds(t *testing.T) {
	dev := NewDevice(3, 10, nil)
	if err := dev.CheckBounds(9); err != nil {
		t.Fatal(err)
	}
	if err := dev.CheckBounds(10); err == nil {
		t.Fatal("out-of-bounds accepted")
	}
	if dev.Strike(100, BitSetOf(1)) != 0 {
		t.Fatal("out-of-range strike should be a no-op")
	}
}

func TestFindMismatch(t *testing.T) {
	const n = 37 // not a multiple of the 8-word block: exercises the tail loop
	d := NewDevice(1, n, nil)
	d.Fill(0xAAAA5555)
	if got := d.FindMismatch(0, 0xAAAA5555); got != -1 {
		t.Fatalf("clean device: %d", got)
	}
	// A mismatch at every position must be found from every starting
	// offset at or before it, and skipped from any offset past it.
	for pos := 0; pos < n; pos++ {
		d.Fill(0xAAAA5555)
		d.Write(Addr(pos), 0xAAAA5554)
		for from := 0; from <= pos; from++ {
			if got := d.FindMismatch(from, 0xAAAA5555); got != pos {
				t.Fatalf("mismatch at %d from %d: got %d", pos, from, got)
			}
		}
		if got := d.FindMismatch(pos+1, 0xAAAA5555); got != -1 {
			t.Fatalf("mismatch at %d should be invisible from %d: got %d", pos, pos+1, got)
		}
	}
	// Two mismatches: the first wins.
	d.Fill(0)
	d.Write(5, 1)
	d.Write(30, 1)
	if got := d.FindMismatch(0, 0); got != 5 {
		t.Fatalf("first of two: %d", got)
	}
	if got := d.FindMismatch(6, 0); got != 30 {
		t.Fatalf("second of two: %d", got)
	}
}

func TestFindMismatchAgreesWithWordLoop(t *testing.T) {
	r := rng.New(11)
	d := NewDevice(1, 300, nil)
	for trial := 0; trial < 500; trial++ {
		expected := uint32(r.IntN(4))
		for i := 0; i < d.Len(); i++ {
			if r.Bernoulli(0.95) {
				d.Write(Addr(i), expected)
			} else {
				d.Write(Addr(i), expected^uint32(1+r.IntN(3)))
			}
		}
		from := r.IntN(d.Len() + 1)
		want := -1
		for i := from; i < d.Len(); i++ {
			if d.Read(Addr(i)) != expected {
				want = i
				break
			}
		}
		if got := d.FindMismatch(from, expected); got != want {
			t.Fatalf("trial %d from %d: got %d, want %d", trial, from, got, want)
		}
	}
}

func TestFillRange(t *testing.T) {
	d := NewDevice(1, 50, nil)
	d.Fill(0xFFFFFFFF)
	d.FillRange(10, 33, 0x12345678)
	for i := 0; i < d.Len(); i++ {
		want := uint32(0xFFFFFFFF)
		if i >= 10 && i < 33 {
			want = 0x12345678
		}
		if got := d.Read(Addr(i)); got != want {
			t.Fatalf("word %d = %#x, want %#x", i, got, want)
		}
	}
	d.FillRange(7, 7, 0) // empty range is a no-op
	if d.Read(7) != 0xFFFFFFFF {
		t.Fatal("empty FillRange wrote")
	}
}

func TestTickNoWeakCellsAllocationFree(t *testing.T) {
	r := rng.New(1)
	empty := NewDevice(1, 64, nil)
	if avg := testing.AllocsPerRun(100, func() { empty.Tick(r) }); avg != 0 {
		t.Errorf("Tick with no weak cells allocates %v times per run", avg)
	}
	// A registered-but-quiet weak cell must not allocate either: the
	// changed slice is only materialized when a cell actually fires.
	quiet := NewDevice(1, 64, nil)
	quiet.AddWeakCell(&WeakCell{Addr: 3, Bit: 1, LeakProb: 0, Active: true})
	if avg := testing.AllocsPerRun(100, func() { quiet.Tick(r) }); avg != 0 {
		t.Errorf("Tick with a quiet weak cell allocates %v times per run", avg)
	}
}
