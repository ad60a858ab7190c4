package shard_test

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/shard"
	"repro/internal/testfault"
)

// TestViewsUnderChaosWatchdog: readers hammer every published view and
// the HTTP endpoints built on them while a 4-shard fleet runs cycles
// through mid-cycle kills, wedges, handoffs, restarts and failbacks.
// The contract is that every view answers from the last published
// cycle: the driver records each reader's response before the first
// cycle and after every cycle, and every response a reader got
// mid-cycle — mid-handoff included — must be one of those, byte for
// byte. A reader blocking the cycle trips the watchdog, which fails the
// test with every goroutine's stack once no cycle has completed within
// cycleBudget; it is re-armed after every cycle, so a loaded machine
// stretches the run without failing it. Under the race detector an
// unguarded read fails it too: the workers, the supervisor and the
// readers share state only through the request/response channels and
// the published view.
func TestViewsUnderChaosWatchdog(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	// A cycle takes under a second under -race on a 2-core machine; the
	// budget leaves a loaded one thirty times that.
	const cycles, cycleBudget = 40, 30 * time.Second
	stalled := time.AfterFunc(cycleBudget, func() {
		buf := make([]byte, 8<<20)
		panic(fmt.Sprintf("no cycle completed within %v; goroutines:\n%s", cycleBudget, buf[:runtime.Stack(buf, true)]))
	})
	defer stalled.Stop()
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

	asJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			return err.Error()
		}
		return string(b)
	}
	http := func(path string) func() string {
		return func() string {
			code, body := get(srv, path)
			return fmt.Sprintf("%d %s", code, body)
		}
	}
	// One goroutine per view, each in a loop with a short pause, so
	// every view is read many times a cycle and the readers still leave
	// the cycle the CPU.
	reads := []struct {
		name string
		read func() string
	}{
		{"Status", func() string { return asJSON(s.Status()) }},
		{"Merged", func() string { return fmt.Sprintf("%+v", s.Merged()) }},
		{"FleetAnomalies", func() string { return asJSON(s.FleetAnomalies()) }},
		{"FleetHealth", func() string { return asJSON(s.FleetHealth()) }},
		{"EngineStats", func() string { return asJSON(s.EngineStats()) }},
		{"/", http("/")},
		{"/shards", http("/shards")},
		{"/stats", http("/stats")},
		{"/health", http("/health")},
		{"/anomalies", http("/anomalies")},
		{"/anomalies?cross=1", http("/anomalies?cross=1")},
		{"/query?metric=routes&op=avg", http("/query?metric=routes&op=avg")},
		{"/query?metric=routes&tier=10", http("/query?metric=routes&tier=10")},
		{"/series/fixw/routes", http("/series/fixw/routes")},
		{"/series/fleet/routes", http("/series/fleet/routes")},
		{"/graph/dom01-gw/routes", http("/graph/dom01-gw/routes")},
	}
	// between[i] and seen[i] hold the distinct responses of reads[i]
	// made between cycles by the driver and at any time by its reader.
	between, seen := make([]map[string]bool, len(reads)), make([]map[string]bool, len(reads))
	record := func() {
		for i, r := range reads {
			between[i][r.read()] = true
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, r := range reads {
		between[i], seen[i] = make(map[string]bool), make(map[string]bool)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				seen[i][r.read()] = true
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}

	halt := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer halt()

	record()
	for c := 1; c <= cycles; c++ {
		// Faults land on a shard that owns targets, so each one moves
		// state: a crash after the cycle ran, then a wedge.
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
			t.Fatal(err)
		}
		stalled.Reset(cycleBudget)
		record()
	}
	halt()
	for i, r := range reads {
		stray := 0
		for body := range seen[i] {
			if !between[i][body] {
				stray++
			}
		}
		if stray > 0 {
			t.Errorf("%s: %d mid-cycle responses match no between-cycles response", r.name, stray)
		}
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
