package timebase

// Civil-date arithmetic on day numbers (days since 1970-01-01), shared by
// the local-time kernel and the log timestamp codec. It follows the classic
// era-based algorithms (Howard Hinnant's civil_from_days/days_from_civil),
// valid over the whole proleptic Gregorian calendar.

// FloorDiv returns a/b rounded toward negative infinity (b > 0).
func FloorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// DaysFromCivil returns the number of days between 1970-01-01 and the civil
// date (y, m, d); negative before the Unix epoch.
func DaysFromCivil(y int64, m, d int) int64 {
	if m <= 2 {
		y--
	}
	era := FloorDiv(y, 400)
	yoe := y - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = int64(m) - 3
	} else {
		mp = int64(m) + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1     // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468       // 719468 = days 0000-03-01..1970-01-01
}

// CivilFromDays inverts DaysFromCivil.
func CivilFromDays(z int64) (y int64, m, d int) {
	z += 719468
	era := FloorDiv(z, 146097)
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	y = yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
	d = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		m = int(mp) + 3
	} else {
		m = int(mp) - 9
	}
	if m <= 2 {
		y++
	}
	return y, m, d
}
