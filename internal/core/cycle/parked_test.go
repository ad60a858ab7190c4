package cycle

import (
	"io"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/engine"
)

// readBound is how long a read documented as safe mid-cycle may take
// while a cycle is parked. Unblocked, each returns in microseconds.
const readBound = 3 * time.Second

// gateDialer parks every Dial until release closes, announcing each on
// entered first, so a test can hold a cycle inside collection.
type gateDialer struct {
	collect.Dialer
	entered chan<- struct{}
	release <-chan struct{}
}

func (d gateDialer) Dial() (io.ReadWriteCloser, error) {
	d.entered <- struct{}{}
	<-d.release
	return d.Dialer.Dial()
}

// read is one named mid-cycle read.
type read struct {
	name string
	fn   func()
}

// readsAnswer runs every read concurrently and fails the test for each
// one that has not returned within readBound, so one blocked read does
// not hide another.
func readsAnswer(t *testing.T, reads []read) {
	t.Helper()
	done := make([]chan struct{}, len(reads))
	for i, r := range reads {
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			r.fn()
		}()
	}
	expired := make(chan struct{})
	time.AfterFunc(readBound, func() { close(expired) })
	for i, r := range reads {
		select {
		case <-done[i]:
		case <-expired:
			select {
			case <-done[i]: // answered as the bound ran out
			default:
				t.Errorf("%s did not answer within %v while the cycle was parked in collection", r.name, readBound)
			}
		}
	}
}

// TestReadsAnswerWhileCycleParked: the engine's state reads and the
// collector's health reads are documented as safe while a cycle runs.
// With the pipelined cycle parked inside a target's session (the worker
// pool in collection, the sequencer waiting for its first item), every
// one of them must still answer: a lock held across the session, the
// Collect stage or the sequencer's receive would stall every reader
// behind the slowest router.
func TestReadsAnswerWhileCycleParked(t *testing.T) {
	n, targets := twinNetwork(t)
	c := twinCore()
	opts := engine.Options{Concurrency: 2}
	n.Step()
	c.Run(n.Now(), targets, opts)

	entered := make(chan struct{}, len(targets))
	release := make(chan struct{})
	gated := make([]collect.Target, len(targets))
	for i, tg := range targets {
		tg.Dialer = gateDialer{Dialer: tg.Dialer, entered: entered, release: release}
		gated[i] = tg
	}
	n.Step()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		c.Run(n.Now(), gated, opts)
	}()
	defer func() {
		close(release)
		<-finished
	}()
	<-entered
	// Let the sequencer reach its receive behind the parked session.
	time.Sleep(50 * time.Millisecond)

	name := twinTargets[1]
	readsAnswer(t, []read{
		{"Engine.Latest", func() { c.Engine.Latest(name) }},
		{"Engine.Stability", func() { c.Engine.Stability(name) }},
		{"Engine.Stats", func() { c.Engine.Stats() }},
		{"Engine.LastReport", func() { c.Engine.LastReport() }},
		{"Collector.TargetHealth", func() { c.Collector.TargetHealth(name) }},
		{"Collector.Health", func() { c.Collector.Health() }},
	})
}
