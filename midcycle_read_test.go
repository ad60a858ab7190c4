package mantra_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	mantra "repro"
)

// TestMonitorViewsUnderCycleWatchdog is the unsharded twin of the shard
// package's TestViewsUnderChaosWatchdog: readers hammer Monitor.Handler()
// — the store behind /query, /series and /graph, the processor's
// anomaly ring and gap counts behind /anomalies and /health — while
// pipelined cycles with aggregation and scripted incidents write them.
// Under the race detector an unguarded read fails the test; a reader
// and the cycle taking two locks in opposite orders trips the deadline,
// which prints every goroutine's stack.
func TestMonitorViewsUnderCycleWatchdog(t *testing.T) {
	const (
		cycles = 16
		limit  = 60 * time.Second
	)
	n, targets := repeatNetwork(t)
	m := mantra.New()
	m.SetCollectPolicy(repeatPolicy)
	m.EnableAggregation()
	for _, tg := range targets {
		m.AddTarget(tg)
	}
	h := m.Handler()
	paths := []string{
		"/query?metric=routes&op=avg",
		"/query?metric=routes&tier=10",
		"/query?metric=routes&op=topk&k=2",
		"/series/fixw/routes",
		"/series/" + mantra.AggregateTarget + "/sessions",
		"/graph/dom00-gw/routes",
		"/anomalies",
		"/anomalies?cross=1",
		"/health",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				serve(h, path)
			}
		}()
	}

	driven := make(chan error, 1)
	go func() {
		for c := 1; c <= cycles; c++ {
			if c == repeatWarmup+1 {
				scheduleIncidents(t, n)
			}
			n.Step()
			if _, err := m.RunCycleConcurrent(n.Now()); err != nil {
				driven <- err
				return
			}
		}
		driven <- nil
	}()

	select {
	case err := <-driven:
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(limit):
		buf := make([]byte, 8<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%d cycles under concurrent readers did not finish within %v; goroutines:\n%s", cycles, limit, buf)
	}
	if len(m.Processor().Anomalies()) == 0 {
		t.Error("no anomaly raised: the readers never saw the ring move")
	}
}
