package ecc

// Chipkill is a single-symbol-correct / double-symbol-detect (SSC-DSD)
// Reed–Solomon code over GF(16), the standard construction for x4-device
// chipkill: each 4-bit symbol maps to one DRAM device, so any corruption —
// 1 to 4 bits — confined to a single device is corrected, and any two
// corrupted devices are detected. Related work cited by the paper ([31],
// Sridharan & Liberty) measured chipkill at 42× fewer uncorrected errors
// than SECDED.
//
// A 32-bit word becomes 8 data symbols; three check symbols give minimum
// distance 4 (correct 1 symbol, detect 2). The decoder computes syndromes
// S1 = Σ e_i α^i, S0 = Σ e_i, S2 = Σ e_i α^2i and locates a single error
// at position log(S1/S0), verifying with S2 to avoid miscorrecting double
// errors into singles.
type Chipkill struct {
	dataSymbols int
}

// NewChipkill returns the x4 chipkill code for 32-bit words (8 data + 3
// check symbols).
func NewChipkill() *Chipkill { return &Chipkill{dataSymbols: 8} }

// encodeSymbols computes the three check symbols for data symbols d.
func (c *Chipkill) encodeSymbols(d []byte) (s0, s1, s2 byte) {
	for i, v := range d {
		s0 ^= v
		s1 ^= gfMul(v, gfPow(i))
		s2 ^= gfMul(v, gfPow(2*i))
	}
	return s0, s1, s2
}

// split explodes a 32-bit word into its 8 data symbols (nibbles, LSB
// first). Each nibble is the slice of the word stored in one x4 device.
func split(word uint32) []byte {
	out := make([]byte, 8)
	for i := range out {
		out[i] = byte(word>>(4*i)) & 0xf
	}
	return out
}

// Classify runs encode→corrupt→decode for a 32-bit data word and a data
// corruption mask, returning the chipkill outcome. Check symbols are
// assumed intact (they lived in the ECC device the prototype lacked).
func (c *Chipkill) Classify(original uint32, flipMask uint32) Outcome {
	if flipMask == 0 {
		return OK
	}
	data := split(original)
	s0c, s1c, s2c := c.encodeSymbols(data)
	corrupted := split(original ^ flipMask)

	// Received syndromes against stored check symbols.
	r0, r1, r2 := c.encodeSymbols(corrupted)
	S0 := r0 ^ s0c
	S1 := r1 ^ s1c
	S2 := r2 ^ s2c

	if S0 == 0 && S1 == 0 && S2 == 0 {
		return Undetected // aliased: corrupted word looks like a codeword
	}
	if S0 != 0 {
		// Hypothesize a single symbol error of value S0 at position
		// log(S1/S0); verify against S2.
		if S1 == 0 {
			// Error pattern with zero first syndrome power: cannot be a
			// single data-symbol error at a valid position unless the
			// check symbol itself is hypothesized — call it detected.
			return Detected
		}
		loc := (int(gfLog[gfDiv(S1, S0)])) % gfOrder
		if loc < c.dataSymbols && gfMul(S0, gfPow(2*loc)) == S2 {
			// Consistent single-symbol hypothesis: the decoder corrects.
			repaired := corrupted[loc] ^ S0
			if repairedWord(corrupted, loc, repaired) == original {
				return Corrected
			}
			return Miscorrected
		}
		return Detected
	}
	// S0 == 0 but S1 or S2 nonzero: even symbol-error pattern, detected.
	return Detected
}

// repairedWord reassembles a word with symbol loc replaced.
func repairedWord(symbols []byte, loc int, val byte) uint32 {
	var w uint32
	for i, s := range symbols {
		if i == loc {
			s = val
		}
		w |= uint32(s) << (4 * i)
	}
	return w
}
