// Fixture for the allowstale check: an allow whose line no longer
// triggers the named check is itself a finding, so suppressions cannot
// outlive the violation they justified.
package netsim

import "time"

// fresh: the allow suppresses a live finding — clean.
func fresh() time.Time {
	return time.Now() //mantralint:allow wallclock fixture: live allow
}

// stale: nothing on this line reads the wall clock anymore.
func stale() int {
	return 42 //mantralint:allow wallclock the violation moved away // want `allow for "wallclock" suppresses nothing on its line`
}

// staleAbove: a standalone stale allow reports at its own line.
func staleAbove() int {
	//mantralint:allow floatsum nothing accumulates below anymore // want `allow for "floatsum" suppresses nothing on its line`
	return 7
}

// suppressedStale: the line triggers only under another build tag the
// linter cannot see; the stale report itself is allowed.
func suppressedStale() int {
	//mantralint:allow allowstale fixture: the line below triggers only under another build tag
	return 9 //mantralint:allow wallclock gated to another platform
}
