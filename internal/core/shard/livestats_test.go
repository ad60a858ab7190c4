package shard_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/shard"
)

// TestLiveStatsWhileFleetCycles reads what the supervisor serves live
// rather than from the published view, EngineStats and /stats (each
// shard engine's counters under the engine's mutex), from goroutines in
// tight loops while a 2-shard fleet runs cycles back to back for a
// second. A cycle in flight holds the engine's mutex now and then, so a
// mutex of the worker's or the supervisor's taken around those counters,
// and the same mutex taken by a stage while the engine's is held,
// deadlock here within a few cycles. The watchdog then fails the test
// with every goroutine's stack.
func TestLiveStatsWhileFleetCycles(t *testing.T) {
	const watchdog = 10 * time.Second
	n := newFleetNetwork(t)
	cfg := fleetConfig(2, 0)
	cfg.Concurrency = 3
	s, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range fleetTargets {
		n.Router(name).Password = "pw"
		s.Register(collect.Target{
			Name:     name,
			Dialer:   collect.PipeDialer{Router: n.Router(name)},
			Password: "pw",
			Prompt:   name + "> ",
			Timeout:  fleetTimeout,
		})
	}
	srv := fleetServer(s)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, read := range []func(){
		func() { s.EngineStats() },
		func() { s.EngineStats() },
		func() { get(srv, "/stats") },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}()
	}
	driven := make(chan error, 1)
	go func() {
		until := time.Now().Add(time.Second)
		for c := 0; c < 2 || time.Now().Before(until); c++ {
			n.Step()
			if _, err := s.RunCycle(n.Now()); err != nil {
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
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second + watchdog):
		buf := make([]byte, 8<<20)
		// The supervisor is left open: closing it would wait on the
		// deadlocked goroutines.
		t.Fatalf("fleet cycles under live-stats readers did not finish %v after the last began; goroutines:\n%s", watchdog, buf[:runtime.Stack(buf, true)])
	}
}
