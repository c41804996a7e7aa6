// Package units provides byte-size and terabyte-hour quantities shared by
// the scanner, scheduler and analysis packages.
//
// The paper reports scanned memory in terabyte-hours (TBh): the integral of
// allocated bytes over scan time. Quantities here are plain float64/int64
// wrappers with explicit conversion helpers so call sites stay dimensionally
// honest without a units framework.
package units

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Byte sizes, in bytes.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
	TiB int64 = 1 << 40
)

// TBh is a quantity of memory-time: terabytes multiplied by hours.
// The paper's headline figure is 12,135 TBh scanned.
type TBh float64

// TBhOf returns the terabyte-hours accrued by holding size bytes for d.
func TBhOf(size int64, d time.Duration) TBh {
	return TBh(float64(size) / float64(TiB) * d.Hours())
}

// Add returns t + u.
func (t TBh) Add(u TBh) TBh { return t + u }

// String renders with the customary two decimals.
func (t TBh) String() string { return fmt.Sprintf("%.2f TBh", float64(t)) }

// ByteSeconds is an exact quantity of memory-time: a signed 128-bit
// count of byte-seconds in two's complement. Integer sums are exact, so
// adding them up in any order gives the same value, where a float TBh sum
// depends on the order of its terms. 128 bits because the paper-scale
// study's ~12,000 TBh is about 4.7e19 byte-seconds, past int64. The zero
// value is zero.
type ByteSeconds struct{ hi, lo uint64 }

// ByteSecondsOf returns the memory-time of size bytes held for secs
// seconds.
func ByteSecondsOf(size, secs int64) ByteSeconds {
	hi, lo := bits.Mul64(magnitude(size), magnitude(secs))
	b := ByteSeconds{hi, lo}
	if (size < 0) != (secs < 0) {
		b = b.neg()
	}
	return b
}

// magnitude is |v| as an unsigned value, exact for math.MinInt64 too.
func magnitude(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// Add returns b + c, wrapping modulo 2^128.
func (b ByteSeconds) Add(c ByteSeconds) ByteSeconds {
	lo, carry := bits.Add64(b.lo, c.lo, 0)
	hi, _ := bits.Add64(b.hi, c.hi, carry)
	return ByteSeconds{hi, lo}
}

func (b ByteSeconds) neg() ByteSeconds {
	lo, borrow := bits.Sub64(0, b.lo, 0)
	hi, _ := bits.Sub64(0, b.hi, borrow)
	return ByteSeconds{hi, lo}
}

// Float64 returns b correctly rounded to the nearest float64 (ties to
// even), as float64 does for an int64.
func (b ByteSeconds) Float64() float64 {
	if int64(b.hi) < 0 {
		m := b.neg()
		return -unsignedFloat(m.hi, m.lo)
	}
	return unsignedFloat(b.hi, b.lo)
}

// unsignedFloat rounds the unsigned 128-bit value hi·2^64 + lo to a
// float64. It keeps the top 64 significant bits and folds every dropped
// bit into the lowest kept one: that bit lies below the 53-bit mantissa's
// rounding bit, so the one conversion of the kept bits rounds exactly as
// the full value would.
func unsignedFloat(hi, lo uint64) float64 {
	if hi == 0 {
		return float64(lo)
	}
	n := 64 - bits.LeadingZeros64(hi) // bits to drop, 1..64
	m := hi<<(64-n) | lo>>n
	if lo<<(64-n) != 0 {
		m |= 1
	}
	return math.Ldexp(float64(m), n)
}

// TBh converts b to terabyte-hours.
func (b ByteSeconds) TBh() TBh { return TBh(b.Float64() / float64(TiB) / 3600) }

// FormatBytes renders a byte count using binary prefixes (e.g. "3.00 GiB").
func FormatBytes(n int64) string {
	switch {
	case n >= TiB:
		return fmt.Sprintf("%.2f TiB", float64(n)/float64(TiB))
	case n >= GiB:
		return fmt.Sprintf("%.2f GiB", float64(n)/float64(GiB))
	case n >= MiB:
		return fmt.Sprintf("%.2f MiB", float64(n)/float64(MiB))
	case n >= KiB:
		return fmt.Sprintf("%.2f KiB", float64(n)/float64(KiB))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// NodeHours is accumulated monitoring time across nodes, in hours.
// The study accumulated over 4.2 million node-hours.
type NodeHours float64

// String renders with thousands precision suitable for headlines.
func (h NodeHours) String() string { return fmt.Sprintf("%.1f node-hours", float64(h)) }

// HoursOf converts a duration to fractional hours.
func HoursOf(d time.Duration) float64 { return d.Hours() }

// ClampInt64 bounds v to [lo, hi].
func ClampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
