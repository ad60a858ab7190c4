package testfault

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Limit is the deadline for a test that drives monitoring cycles. The
// slowest of them, the experiments' injection scenario, takes about two
// minutes under the race detector on a loaded 2-core machine; go test's
// own -timeout is ten.
const Limit = 4 * time.Minute

// Deadline arms a watchdog over the rest of test t, its cleanups
// included: if t has not finished within d, the watchdog panics naming
// t, with every goroutine's stack, instead of leaving a wedged test to
// go test's -timeout. Call it first, so the cleanups registered after it
// run under it.
func Deadline(t testing.TB, d time.Duration) {
	timer := time.AfterFunc(d, func() {
		buf := make([]byte, 8<<20)
		panic(fmt.Sprintf("%s did not finish within %v; goroutines:\n%s", t.Name(), d, buf[:runtime.Stack(buf, true)]))
	})
	t.Cleanup(func() { timer.Stop() })
}
