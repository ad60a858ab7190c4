package shard_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/shard"
)

// TestViewsUnderChaosWatchdog: readers hammer every published view and
// the HTTP endpoints built on them while a 4-shard fleet runs cycles
// through mid-cycle kills, wedges, handoffs, restarts and failbacks.
// Every lock the driver, the workers and the readers take is taken here
// from all sides at once, so two of them acquired in opposite orders
// deadlock; the watchdog then fails the test with every goroutine's
// stack. /query, /series and /graph read the shard stores the cycle is
// writing, so under the race detector an unguarded read fails it too.
func TestViewsUnderChaosWatchdog(t *testing.T) {
	const (
		cycles = 40
		limit  = 60 * time.Second
	)
	n := newFleetNetwork(t)
	// 45-minute heartbeat over 30-minute cycles catches a wedge on its
	// second cycle; an hour's backoff restarts a dead shard two cycles
	// later.
	s, err := shard.New(fleetConfig(4, 45*time.Minute))
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

	// One goroutine per view, each in a tight loop, so every view's
	// locks are held for as much of the run as the readers can manage.
	reads := []func(){
		func() { s.Status() },
		func() { s.Merged() },
		func() { s.FleetAnomalies() },
		func() { s.FleetHealth() },
		func() { s.EngineStats() },
		func() { get(srv, "/shards") },
		func() { get(srv, "/health") },
		func() { get(srv, "/anomalies") },
		func() { get(srv, "/anomalies?cross=1") },
		func() { get(srv, "/query?metric=routes&op=avg") },
		func() { get(srv, "/query?metric=routes&tier=10") },
		func() { get(srv, "/series/fixw/routes") },
		func() { get(srv, "/graph/dom01-gw/routes") },
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, read := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				read()
			}
		}()
	}

	driven := make(chan error, 1)
	go func() {
		for c := 1; c <= cycles; c++ {
			// Faults land on a shard that owns targets, so each one
			// moves state: a crash after the cycle ran, then a wedge.
			switch c % 8 {
			case 2:
				if idx, ok := ownerShard(s); ok {
					s.Kill(idx, shard.KillMidCycle)
				}
			case 6:
				if idx, ok := ownerShard(s); ok {
					s.Kill(idx, shard.Wedge)
				}
			}
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
	case <-time.After(limit):
		buf := make([]byte, 8<<20)
		buf = buf[:runtime.Stack(buf, true)]
		// The supervisor is left open: closing it would wait on the
		// deadlocked goroutines.
		t.Fatalf("%d fleet cycles under concurrent readers did not finish within %v; goroutines:\n%s", cycles, limit, buf)
	}
	st := s.Status()
	if st.Handoffs == 0 {
		t.Errorf("no handoff happened: the faults did not bite (%+v)", st)
	}
	restarted := false
	for _, row := range st.Shards {
		restarted = restarted || row.Restarts > 0
	}
	if !restarted {
		t.Errorf("no shard restarted: %+v", st.Shards)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// ownerShard picks the lowest-indexed live shard that owns a target.
func ownerShard(s *shard.Supervisor) (int, bool) {
	for _, row := range s.Status().Shards {
		if row.Alive && len(row.Targets) > 0 {
			return row.Index, true
		}
	}
	return 0, false
}
