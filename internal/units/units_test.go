package units

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
	"time"
)

func TestTBhOf(t *testing.T) {
	// 1 TiB held for 1 hour is exactly 1 TBh.
	got := TBhOf(TiB, time.Hour)
	if math.Abs(float64(got)-1) > 1e-12 {
		t.Fatalf("TBhOf(1TiB, 1h) = %v, want 1", got)
	}
	// 3 GiB for 2 hours.
	want := 3.0 / 1024 * 2
	got = TBhOf(3*GiB, 2*time.Hour)
	if math.Abs(float64(got)-want) > 1e-12 {
		t.Fatalf("TBhOf(3GiB, 2h) = %v, want %v", got, want)
	}
	if got := TBhOf(0, time.Hour); got != 0 {
		t.Fatalf("TBhOf(0) = %v, want 0", got)
	}
}

func TestTBhAddAndString(t *testing.T) {
	a := TBh(1.5)
	if got := a.Add(2.25); math.Abs(float64(got)-3.75) > 1e-12 {
		t.Fatalf("Add = %v", got)
	}
	if s := TBh(12.345).String(); s != "12.35 TBh" {
		t.Fatalf("String = %q", s)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{512, "512 B"},
		{2 * KiB, "2.00 KiB"},
		{3 * MiB, "3.00 MiB"},
		{3 * GiB, "3.00 GiB"},
		{2 * TiB, "2.00 TiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestClampInt64(t *testing.T) {
	if got := ClampInt64(5, 0, 10); got != 5 {
		t.Fatalf("in range: %d", got)
	}
	if got := ClampInt64(-3, 0, 10); got != 0 {
		t.Fatalf("below: %d", got)
	}
	if got := ClampInt64(42, 0, 10); got != 10 {
		t.Fatalf("above: %d", got)
	}
}

func TestHoursOf(t *testing.T) {
	if got := HoursOf(90 * time.Minute); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("HoursOf = %v", got)
	}
}

func TestNodeHoursString(t *testing.T) {
	if s := NodeHours(4200000.04).String(); s != "4200000.0 node-hours" {
		t.Fatalf("String = %q", s)
	}
}

// TestByteSecondsExact checks the 128-bit sums against math/big: random
// products of both signs, summed in two different orders, must give the
// same value, equal to the big.Int sum, and Float64 must equal big.Float's
// nearest-even rounding.
func TestByteSecondsExact(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	operand := func() int64 {
		switch r.IntN(5) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64 - r.Int64N(3)
		case 2:
			return -r.Int64N(1 << 40)
		default:
			return r.Int64N(1 << uint(1+r.IntN(62)))
		}
	}
	for trial := 0; trial < 2000; trial++ {
		var fwd, rev ByteSeconds
		want := new(big.Int)
		terms := make([]ByteSeconds, 1+r.IntN(4))
		for i := range terms {
			size, secs := operand(), operand()>>2
			terms[i] = ByteSecondsOf(size, secs)
			want.Add(want, new(big.Int).Mul(big.NewInt(size), big.NewInt(secs)))
		}
		for i := range terms {
			fwd = fwd.Add(terms[i])
			rev = rev.Add(terms[len(terms)-1-i])
		}
		if fwd != rev {
			t.Fatalf("trial %d: order-dependent sum %v vs %v", trial, fwd, rev)
		}
		// Four terms of magnitude at most 2^63·2^61 stay inside the signed
		// 128-bit range.
		wantF, _ := new(big.Float).SetInt(want).Float64()
		if got := fwd.Float64(); got != wantF {
			t.Fatalf("trial %d: Float64 %v, want %v (exact %v)", trial, got, wantF, want)
		}
	}
	if got := ByteSecondsOf(TiB, 3600).TBh(); got != 1 {
		t.Fatalf("1 TiB for an hour is %v TBh, want 1", got)
	}
}
