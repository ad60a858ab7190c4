// Fixture proving an allow comment silences exactly the named check on
// exactly its own line — never a different check, never a nearby line.
package netsim

import "time"

// wrongCheck: the allow names floatsum, so the wallclock finding on the
// same line must still be reported.
func wrongCheck() time.Time {
	return time.Now() //mantralint:allow floatsum names the wrong check // want `time.Now reads the wall clock` `allow for "floatsum" suppresses nothing on its line`
}

// sameLineBoth: two different checks fire on one line; the allow silences
// only wallclock, so floatsum still reports.
func sameLineBoth(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v * float64(time.Now().Unix()) //mantralint:allow wallclock only the clock read is justified // want `floating-point accumulation into sum in map-iteration order`
	}
	return sum
}

// lineAbove: a standalone allow on its own line covers the line below it.
func lineAbove() time.Time {
	//mantralint:allow wallclock standalone comment covers the next line
	return time.Now()
}

// tooFarAway: an allow two lines up covers nothing.
func tooFarAway() time.Time {
	//mantralint:allow wallclock this comment is two lines above the read // want `allow for "wallclock" suppresses nothing on its line`

	return time.Now() // want `time.Now reads the wall clock`
}
