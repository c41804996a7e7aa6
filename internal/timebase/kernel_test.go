package timebase

import (
	"math"
	"testing"
	"time"
)

// The reference: the time.Date/time.In implementation the integer kernel
// replaced, kept verbatim apart from the ref prefix. The kernel must agree
// with it everywhere T.Time is exact.

func refDay(t T) int {
	lt := refToLocal(t.Time())
	midnight := time.Date(2015, time.February, 1, 0, 0, 0, 0, time.UTC)
	// Local calendar day relative to the local date of the epoch. The epoch
	// is 2015-02-01 01:00 local (CET); day 0 covers the remainder of
	// 2015-02-01 local.
	y, m, d := lt.Date()
	cur := time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
	return int(cur.Sub(midnight) / (24 * time.Hour))
}

func refHourOfDay(t T) int { return refToLocal(t.Time()).Hour() }

func refSecondsIntoLocalDay(t T) int64 {
	lt := refToLocal(t.Time())
	return int64(lt.Hour())*3600 + int64(lt.Minute())*60 + int64(lt.Second())
}

func refMonth(t T) time.Month { return refToLocal(t.Time()).Month() }

// refLastSunday returns the day-of-month of the last Sunday of (year, month).
func refLastSunday(year int, month time.Month) int {
	// Day after the month's last day, step back to Sunday.
	next := time.Date(year, month+1, 1, 0, 0, 0, 0, time.UTC)
	last := next.AddDate(0, 0, -1)
	off := int(last.Weekday()) // Sunday == 0
	return last.Day() - off
}

func refIsCEST(t time.Time) bool {
	t = t.UTC()
	y := t.Year()
	start := time.Date(y, time.March, refLastSunday(y, time.March), 1, 0, 0, 0, time.UTC)
	end := time.Date(y, time.October, refLastSunday(y, time.October), 1, 0, 0, 0, time.UTC)
	return !t.Before(start) && t.Before(end)
}

func refToLocal(t time.Time) time.Time {
	if refIsCEST(t) {
		return t.In(zoneCEST)
	}
	return t.In(zoneCET)
}

// The differential domain is the ±292 years T.Time can reach (time.Duration
// counted in seconds, years 1723 to 2307) less two days at each end, where
// refDay's cur.Sub saturates time.Duration.
var (
	minT = T(-math.MaxInt64/int64(time.Second) + 2*86400)
	maxT = T(math.MaxInt64/int64(time.Second) - 2*86400)
)

// First and last year whose DST switches and month boundaries lie inside
// the domain.
const firstYear, lastYear = 1723, 2306

// checkLocal fails t unless every local-time accessor agrees with the
// reference at study time at.
func checkLocal(t *testing.T, at T) {
	t.Helper()
	if got, want := at.Day(), refDay(at); got != want {
		t.Fatalf("%v UTC: Day = %d, want %d", at.Time(), got, want)
	}
	if got, want := at.HourOfDay(), refHourOfDay(at); got != want {
		t.Fatalf("%v UTC: HourOfDay = %d, want %d", at.Time(), got, want)
	}
	if got, want := at.SecondsIntoLocalDay(), refSecondsIntoLocalDay(at); got != want {
		t.Fatalf("%v UTC: SecondsIntoLocalDay = %d, want %d", at.Time(), got, want)
	}
	if got, want := at.Month(), refMonth(at); got != want {
		t.Fatalf("%v UTC: Month = %v, want %v", at.Time(), got, want)
	}
	checkInstant(t, at.Time())
}

// checkInstant fails t unless IsCEST and ToLocal agree with the reference
// at the (possibly sub-second) instant tm.
func checkInstant(t *testing.T, tm time.Time) {
	t.Helper()
	if got, want := IsCEST(tm), refIsCEST(tm); got != want {
		t.Fatalf("%v: IsCEST = %v, want %v", tm.UTC(), got, want)
	}
	got, want := ToLocal(tm), refToLocal(tm)
	if !got.Equal(want) || got.Location() != want.Location() {
		t.Fatalf("%v: ToLocal = %v, want %v", tm.UTC(), got, want)
	}
}

func TestLocalTimeMatchesTimePackage(t *testing.T) {
	if d := T(-math.MaxInt64 / int64(time.Second)).Time().Year(); d != firstYear-1 {
		t.Fatalf("domain starts in %d, want %d", d, firstYear-1)
	}
	if d := T(math.MaxInt64 / int64(time.Second)).Time().Year(); d != lastYear+1 {
		t.Fatalf("domain ends in %d, want %d", d, lastYear+1)
	}
	utc := func(y int, m time.Month, d, h int) T { return FromTime(time.Date(y, m, d, h, 0, 0, 0, time.UTC)) }

	t.Run("dst switches", func(t *testing.T) {
		subSecond := []time.Duration{-time.Second + 1, -500 * time.Millisecond, -1, 0, 1, 500 * time.Millisecond, time.Second - 1}
		for y := firstYear; y <= lastYear; y++ {
			for _, m := range []time.Month{time.March, time.October} {
				sw := utc(y, m, refLastSunday(y, m), 1)
				for k := T(-120); k <= 120; k++ {
					checkLocal(t, sw+k)
				}
				for k := T(-86400); k <= 86400; k += 1201 {
					checkLocal(t, sw+k)
				}
				for _, d := range subSecond {
					checkInstant(t, sw.Time().Add(d))
				}
			}
		}
	})

	t.Run("month boundaries", func(t *testing.T) {
		// Local months start one or two hours before the UTC ones.
		edges := []T{-7201, -7200, -7199, -3601, -3600, -3599, -1, 0, 1}
		for y := firstYear; y <= lastYear; y++ {
			for m := time.January; m <= time.December; m++ {
				b := utc(y, m, 1, 0)
				for _, k := range edges {
					checkLocal(t, b+k)
				}
				for k := T(-86400); k <= 86400; k += 7211 {
					checkLocal(t, b+k)
				}
			}
		}
	})

	t.Run("study window", func(t *testing.T) {
		for at := T(0); at < T(StudySeconds); at += 307 {
			checkLocal(t, at)
		}
	})
}

// foldDomain maps any int64 onto the differential domain, leaving values
// already inside it unchanged.
func foldDomain(sec int64) T {
	span := int64(maxT-minT) + 1
	return minT + T(((sec-int64(minT))%span+span)%span)
}

func FuzzLocalTime(f *testing.F) {
	for _, sw := range []time.Time{
		time.Date(2015, time.March, 29, 1, 0, 0, 0, time.UTC),
		time.Date(2015, time.October, 25, 1, 0, 0, 0, time.UTC),
		time.Date(2016, time.March, 27, 1, 0, 0, 0, time.UTC),
		time.Date(2016, time.October, 30, 1, 0, 0, 0, time.UTC),
	} {
		f.Add(int64(FromTime(sw)))
		f.Add(int64(FromTime(sw)) - 1)
	}
	f.Fuzz(func(t *testing.T, sec int64) {
		checkLocal(t, foldDomain(sec))
	})
}

var (
	sinkInt   int
	sinkInt64 int64
	sinkMonth time.Month
)

func TestLocalTimeZeroAlloc(t *testing.T) {
	at := T(StudySeconds / 3)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Day", func() { sinkInt = at.Day() }},
		{"HourOfDay", func() { sinkInt = at.HourOfDay() }},
		{"SecondsIntoLocalDay", func() { sinkInt64 = at.SecondsIntoLocalDay() }},
		{"Month", func() { sinkMonth = at.Month() }},
	} {
		if avg := testing.AllocsPerRun(100, c.fn); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, avg)
		}
	}
}

// TestDayStartIsLocalMidnight: DayStart(d) is the first second of local
// day d by the time-package reference, for every day from 1900 to 2200,
// so it is d's local midnight under whichever offset holds there. The
// study's two 2015 switch days come out 23 and 25 hours long.
func TestDayStartIsLocalMidnight(t *testing.T) {
	first := refDay(FromTime(time.Date(1900, time.January, 1, 12, 0, 0, 0, time.UTC)))
	last := refDay(FromTime(time.Date(2200, time.January, 1, 12, 0, 0, 0, time.UTC)))
	for d := first; d <= last; d++ {
		s := DayStart(d)
		if refDay(s) != d || refDay(s-1) != d-1 || refSecondsIntoLocalDay(s) != 0 {
			t.Fatalf("DayStart(%d) = %v (local %v), not that day's local midnight", d, s, refToLocal(s.Time()))
		}
	}
	for _, c := range []struct {
		m     time.Month
		day   int
		hours T
	}{{time.March, 29, 23}, {time.October, 25, 25}, {time.June, 30, 24}} {
		d := refDay(FromTime(time.Date(2015, c.m, c.day, 12, 0, 0, 0, time.UTC)))
		if got := DayStart(d+1) - DayStart(d); got != c.hours*3600 {
			t.Errorf("2015-%02d-%02d lasts %d s, want %d h", c.m, c.day, got, c.hours)
		}
	}
}
