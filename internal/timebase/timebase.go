// Package timebase defines the study clock.
//
// The study window is February 2015 through February 2016 (inclusive), at
// the Barcelona Supercomputing Center. All simulation time is kept as
// seconds since the study epoch (UTC); presentation-level analyses (hour of
// day, day index) use local wall time under the CET/CEST rules, implemented
// here directly so the library does not depend on a tzdata database being
// installed.
package timebase

import (
	"fmt"
	"time"
)

// Epoch is the first instant of the study, 2015-02-01 00:00:00 UTC.
var Epoch = time.Date(2015, time.February, 1, 0, 0, 0, 0, time.UTC)

// End is the first instant after the study, 2016-03-01 00:00:00 UTC
// ("February 2015 to February 2016 inclusive").
var End = time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)

// StudyDays is the number of whole days in the window.
var StudyDays = int(End.Sub(Epoch) / (24 * time.Hour))

// StudySeconds is the window length in seconds.
var StudySeconds = int64(End.Sub(Epoch) / time.Second)

// T is simulation time: seconds since Epoch. Negative values are before the
// study and never produced by the simulator.
type T int64

// FromTime converts an absolute time to study time.
func FromTime(t time.Time) T { return T(t.Sub(Epoch) / time.Second) }

// Time converts study time back to an absolute UTC time.
func (t T) Time() time.Time { return Epoch.Add(time.Duration(t) * time.Second) }

// Add returns the study time shifted by d.
func (t T) Add(d time.Duration) T { return t + T(d/time.Second) }

// Sub returns the duration t - u.
func (t T) Sub(u T) time.Duration { return time.Duration(t-u) * time.Second }

// The local-time kernel. Day, HourOfDay, SecondsIntoLocalDay, Month and
// IsCEST sit under every per-window and per-element lookup of the
// simulation and the accumulators, so they work on Unix seconds with
// integer civil-date arithmetic and never build a time.Time. Within ±292
// years of the epoch (years 1723–2306, where T.Time is exact) they agree
// with the time package's answer for ToLocal(t.Time()), which
// TestLocalTimeMatchesTimePackage proves. Farther out T.Time wraps around
// time.Duration, and the kernel keeps returning the true calendar answer.

const secondsPerDay = 86400

var (
	// epochUnix is Epoch in Unix seconds: T(0).
	epochUnix = Epoch.Unix()
	// epochDay is Epoch's day number (days since 1970-01-01); Epoch is a
	// UTC midnight, and day index 0 is the local date 2015-02-01.
	epochDay = epochUnix / secondsPerDay
)

// cestUnix reports whether Unix second u falls in CEST. It applies the EU
// rule to u's UTC date: April to September are summer, November to
// February winter. March and October both have 31 days, so their last
// Sunday is the only Sunday on day 25 or later, and the switch is at
// 01:00 UTC on that Sunday.
func cestUnix(u int64) bool {
	days := FloorDiv(u, secondsPerDay)
	_, m, d := CivilFromDays(days)
	if m != 3 && m != 10 {
		return m > 3 && m < 10
	}
	wd := int(((days+4)%7 + 7) % 7) // Sunday == 0; 1970-01-01 was a Thursday
	sunday := d - wd                // this date's Sunday, or earlier (≤ 0: previous month)
	switched := sunday >= 25 && (wd > 0 || u-days*secondsPerDay >= 3600)
	if m == 3 {
		return switched
	}
	return !switched
}

// local returns t's Barcelona wall-clock date as a day number (days since
// 1970-01-01) and the seconds into that day.
func (t T) local() (day, sec int64) {
	u := int64(t) + epochUnix
	if cestUnix(u) {
		u += 2 * 3600
	} else {
		u += 3600
	}
	day = FloorDiv(u, secondsPerDay)
	return day, u - day*secondsPerDay
}

// Day returns the zero-based day index of t in local wall time. The epoch
// is 2015-02-01 01:00 local (CET); day 0 covers the remainder of
// 2015-02-01 local.
func (t T) Day() int {
	day, _ := t.local()
	return int(day - epochDay)
}

// HourOfDay returns the local hour (0-23) of t.
func (t T) HourOfDay() int {
	_, sec := t.local()
	return int(sec / 3600)
}

// SecondsIntoLocalDay returns how far t is into its local calendar day.
func (t T) SecondsIntoLocalDay() int64 {
	_, sec := t.local()
	return sec
}

// DayStart returns the instant local day `day` begins: its local
// midnight, converted to study time with the offset in force at that
// midnight. The CET/CEST switches happen at 01:00 UTC, never at a local
// midnight, so the hour before the midnight (in UTC, an hour after it on
// a CEST day) carries the same offset. Stepping from DayStart(d) to
// DayStart(d+1) spans 23 hours on the spring-forward day and 25 on the
// fall-back day.
func DayStart(day int) T {
	if uint(day) < uint(len(studyDayStarts)) {
		return studyDayStarts[day]
	}
	return dayStart(day)
}

// studyDayStarts caches DayStart over the study window and the midnight
// that closes it: Fig 9 steps every session through it day by day.
var studyDayStarts = func() []T {
	starts := make([]T, StudyDays+1)
	for day := range starts {
		starts[day] = dayStart(day)
	}
	return starts
}()

func dayStart(day int) T {
	local := (epochDay + int64(day)) * secondsPerDay
	u := local - 3600
	if cestUnix(u) {
		u -= 3600
	}
	return T(u - epochUnix)
}

// Month returns the local calendar month of t.
func (t T) Month() time.Month {
	day, _ := t.local()
	_, m, _ := CivilFromDays(day)
	return time.Month(m)
}

// String renders as local wall-clock time.
func (t T) String() string { return ToLocal(t.Time()).Format("2006-01-02 15:04:05") }

// IsCEST reports whether the instant (UTC) falls in Central European Summer
// Time: from 01:00 UTC on the last Sunday of March until 01:00 UTC on the
// last Sunday of October.
func IsCEST(t time.Time) bool { return cestUnix(t.Unix()) }

// The two fixed-offset locations are shared, because time.FixedZone
// allocates a fresh *Location on every call. ToLocal serves String and
// callers that need a time.Time; the per-element lookups above never
// reach it.
var (
	zoneCEST = time.FixedZone("CEST", 2*3600)
	zoneCET  = time.FixedZone("CET", 1*3600)
)

// ToLocal converts a UTC instant to Barcelona wall time (CET/CEST) using a
// fixed-offset location, independent of the host tz database.
func ToLocal(t time.Time) time.Time {
	if IsCEST(t) {
		return t.In(zoneCEST)
	}
	return t.In(zoneCET)
}

// DayLabel renders a zero-based study day index as a local date.
func DayLabel(day int) string {
	d := time.Date(2015, time.February, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, day)
	return d.Format("2006-01-02")
}

// MonthOfDay returns the local calendar month containing the given study day.
func MonthOfDay(day int) time.Month {
	d := time.Date(2015, time.February, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, day)
	return d.Month()
}

// Validate returns an error if the window constants are inconsistent; used
// by tests.
func Validate() error {
	if !End.After(Epoch) {
		return fmt.Errorf("timebase: end %v not after epoch %v", End, Epoch)
	}
	if StudyDays < 300 || StudyDays > 500 {
		return fmt.Errorf("timebase: suspicious study length %d days", StudyDays)
	}
	return nil
}
