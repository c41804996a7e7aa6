// Package dram models the ECC-less LPDDR device under study: word/bit
// geometry, the physical-to-logical bit scrambling that makes multi-bit
// corruption land on non-adjacent logical bits, DRAM cell polarity (which
// makes ~90% of observed flips go 1→0), corruption materialization against
// the scanner's write patterns, and a real in-memory device buffer that the
// scanner can genuinely scan.
package dram

import (
	"fmt"
	"math/bits"
	"strings"
)

// WordBits is the memory-word width used throughout the study. The paper's
// scanner checks 32-bit words (expected values 0x00000000 / 0xFFFFFFFF).
const WordBits = 32

// BitSet is a set of logical bit positions within one memory word.
type BitSet uint32

// BitSetOf builds a BitSet from explicit positions; out-of-range positions
// are ignored.
func BitSetOf(positions ...int) BitSet {
	var b BitSet
	for _, p := range positions {
		if p >= 0 && p < WordBits {
			b |= 1 << uint(p)
		}
	}
	return b
}

// Count returns the number of bits in the set.
func (b BitSet) Count() int { return bits.OnesCount32(uint32(b)) }

// Positions returns the sorted bit positions present in the set.
func (b BitSet) Positions() []int {
	out := make([]int, 0, b.Count())
	for p := 0; p < WordBits; p++ {
		if b&(1<<uint(p)) != 0 {
			out = append(out, p)
		}
	}
	return out
}

// Consecutive reports whether all set bits form one contiguous run. Sets
// with fewer than two bits are trivially consecutive. Table I's
// "Consecutive" column uses this definition.
func (b BitSet) Consecutive() bool {
	if b == 0 {
		return true
	}
	shifted := uint32(b) >> uint(bits.TrailingZeros32(uint32(b)))
	return shifted&(shifted+1) == 0
}

// MaxGap returns the largest count of unset bits between two set bits
// (the paper observed up to 11). Zero for sets with fewer than two bits.
func (b BitSet) MaxGap() int {
	pos := b.Positions()
	max := 0
	for i := 1; i < len(pos); i++ {
		gap := pos[i] - pos[i-1] - 1
		if gap > max {
			max = gap
		}
	}
	return max
}

// GapBits returns the unset bits between adjacent set bits, summed: the
// span from the lowest to the highest set bit less the set bits. An
// event's mean gap (the paper reports an average distance of 3) is
// GapBits over Count−1. Zero for sets with fewer than two bits.
func (b BitSet) GapBits() int {
	if b == 0 {
		return 0
	}
	w := uint32(b)
	return 32 - bits.LeadingZeros32(w) - bits.TrailingZeros32(w) - bits.OnesCount32(w)
}

// String renders like "{1,9,10}".
func (b BitSet) String() string {
	pos := b.Positions()
	parts := make([]string, len(pos))
	for i, p := range pos {
		parts[i] = fmt.Sprint(p)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
