package shard_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/shard"
	"repro/internal/testfault"
)

// TestLiveStatsWhileFleetCycles reads EngineStats and /stats from
// goroutines in tight loops while a 2-shard fleet, three pool workers a
// shard, runs cycles back to back for a second. Both answer from the
// published view, so the readers share nothing with a cycle in flight
// but the view pointer: under the race detector a read that reaches an
// engine, or a worker write that no request or response orders before
// the supervisor's read, fails the test, and a reader that blocks the
// cycle trips the deadline, which fails it with every goroutine's stack.
func TestLiveStatsWhileFleetCycles(t *testing.T) {
	testfault.Deadline(t, 10*time.Second)
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
	halt := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer halt()
	until := time.Now().Add(time.Second)
	for c := 0; c < 2 || time.Now().Before(until); c++ {
		n.Step()
		if _, err := s.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	halt()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
