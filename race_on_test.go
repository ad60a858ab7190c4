//go:build race

package mantra_test

// raceDetector reports a -race build. The detector's bookkeeping makes
// allocations of its own, which the allocation gates allow for.
const raceDetector = true
