package mantra_test

import (
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	mantra "repro"
	"repro/internal/testfault"
)

// TestMonitorViewsUnderCycleWatchdog is the unsharded twin of the shard
// package's TestViewsUnderChaosWatchdog. Readers hammer every endpoint
// of Monitor.Handler() — /query, /series and /graph over the store,
// /anomalies and /health over the anomaly ring and gap counts, the /
// index and /tables/* over the summary tables, /archive over the
// archive counters, /stats over the engine's counters — while
// pipelined cycles with aggregation, the archive and scripted incidents
// write them; half way through, the archive directory is removed, so a
// checkpoint fails and /archive reports the error the cycle recorded.
// The contract is that every endpoint answers from the last published
// cycle: the driver records each path's response before the first
// cycle and after every cycle, and every response a reader got
// mid-cycle must be one of those, byte for byte. Under the race
// detector an unguarded read fails the test too, and a reader blocking
// the cycle trips the deadline, which prints every goroutine's stack.
func TestMonitorViewsUnderCycleWatchdog(t *testing.T) {
	testfault.Deadline(t, time.Minute)
	const cycles = 16
	n, targets := repeatNetwork(t)
	m := mantra.New()
	m.SetCollectPolicy(repeatPolicy)
	m.EnableAggregation()
	dir := t.TempDir()
	if _, err := m.EnableArchive(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 4}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.CloseArchive(n.Now()) })
	for _, tg := range targets {
		m.AddTarget(tg)
	}
	h := m.Handler()
	paths := []string{
		"/",
		"/query?metric=routes&op=avg",
		"/query?metric=routes&tier=10",
		"/query?metric=routes&op=topk&k=2",
		"/series/fixw/routes",
		"/series/" + mantra.AggregateTarget + "/sessions",
		"/graph/dom00-gw/routes",
		"/tables/busiest-fixw",
		"/tables/routes-" + mantra.AggregateTarget,
		"/anomalies",
		"/anomalies?cross=1",
		"/health",
		"/archive",
		"/stats",
	}
	read := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return fmt.Sprintf("%d %s", rec.Code, rec.Body)
	}
	// between[i] and seen[i] hold the distinct responses on paths[i]
	// read between cycles by the driver and at any time by its reader.
	between, seen := make([]map[string]bool, len(paths)), make([]map[string]bool, len(paths))
	record := func() {
		for i, path := range paths {
			between[i][read(path)] = true
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, path := range paths {
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
				seen[i][read(path)] = true
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
		if c == repeatWarmup+1 {
			scheduleIncidents(t, n)
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		}
		n.Step()
		if _, err := m.RunCycleConcurrent(n.Now()); err != nil {
			t.Fatal(err)
		}
		record()
	}
	halt()
	if mixed := strays(paths, seen, between); len(mixed) > 0 {
		t.Errorf("mid-cycle responses matching no between-cycles response: %s", strings.Join(mixed, ", "))
	}
	if len(m.Processor().Anomalies()) == 0 {
		t.Error("no anomaly raised: the readers never saw the ring move")
	}
	for i, path := range paths {
		if len(between[i]) < 2 {
			t.Errorf("%s never changed between cycles: a mixed read could not show", path)
		}
	}
	if m.ArchiveStatus().LastAppendError == "" {
		t.Error("no archive error recorded after the archive directory went")
	}
}

// strays names each of paths whose seen responses include some its
// between responses lack, with how many.
func strays(paths []string, seen, between []map[string]bool) []string {
	var out []string
	for i, path := range paths {
		n := 0
		for body := range seen[i] {
			if !between[i][body] {
				n++
			}
		}
		if n > 0 {
			out = append(out, fmt.Sprintf("%s (%d)", path, n))
		}
	}
	return out
}
