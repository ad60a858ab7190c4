package main

import "time"

// wall is the harness's only wall-clock read; every timing it reports
// is a difference of two calls.
func wall() time.Time {
	return time.Now() //mantralint:allow wallclock a benchmark measures real elapsed time; this is the single seam every timed region reads through
}

var processStart = wall()

// now is the monotonic time since process start.
func now() time.Duration { return wall().Sub(processStart) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
