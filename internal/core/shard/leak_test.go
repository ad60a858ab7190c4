package shard_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/shard"
	"repro/internal/core/tables"
)

// TestGoroutinesReturnToBaseline: every goroutine the collector, the
// stage engine and the supervisor start is gone once the work that
// started it is done. A poll loop per collector session, per cycle or
// per worker would otherwise pile up over a months-long daemon run.
// Collector sessions over PipeDialer run first, alone and under the
// resilient collector; then a two-shard supervisor runs cycles and
// closes. After each, the goroutine count must fall back to what it
// was before.
func TestGoroutinesReturnToBaseline(t *testing.T) {
	n := newFleetNetwork(t)
	targets := make([]collect.Target, len(fleetTargets))
	for i, name := range fleetTargets {
		n.Router(name).Password = "pw"
		targets[i] = collect.Target{Name: name, Dialer: collect.PipeDialer{Router: n.Router(name)}, Password: "pw", Prompt: name + "> ", Timeout: fleetTimeout}
	}
	base := runtime.NumGoroutine()
	settle := func(what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("after %s: %d goroutines, %d before\n%s", what, runtime.NumGoroutine(), base, buf)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	c := collect.NewCollector(fleetConfig(1, 0).Policy)
	for _, tgt := range targets {
		c.Track(tgt.Name)
	}
	for i := 0; i < 3; i++ {
		n.Step()
		for _, tgt := range targets {
			if _, err := collect.CollectAll(tgt, collect.StandardCommands, n.Now()); err != nil {
				t.Fatal(err)
			}
			if res := c.Collect(tgt, collect.StandardCommands, n.Now(), new(collect.ReadBuffer), &tables.Scanner{Target: tgt.Name, Prompt: tgt.Prompt}); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	settle("collector sessions")

	s, err := shard.New(fleetConfig(2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range targets {
		s.Register(tgt)
	}
	for i := 0; i < 3; i++ {
		step(t, n, s)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	settle("a supervisor's cycles and close")
}
