package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/process"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

// fakeTargets returns n named targets; the engine never dials them in
// these tests — the stub Collect stage fabricates results directly.
func fakeTargets(n int) []collect.Target {
	out := make([]collect.Target, n)
	for i := range out {
		out[i] = collect.Target{Name: fmt.Sprintf("t%02d", i)}
	}
	return out
}

// okCollect fabricates a successful collection with a minimal snapshot.
func okCollect(it *Item, now time.Time, _ int) {
	it.Res = collect.Result{Target: it.Target.Name, Status: collect.StatusOK, Attempts: 1}
	it.Snapshot = &tables.Snapshot{Target: it.Target.Name, At: now}
}

func noop(*Item, time.Time) {}

// TestOrderingUnderRandomCompletion: targets finish collection in random
// order, but the ordered stages must still see them strictly in
// registration order — that reorder guarantee is what keeps the
// pipelined path byte-identical to the serial one.
func TestOrderingUnderRandomCompletion(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(7))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(3000)) * time.Microsecond
	}
	var mu sync.Mutex
	var logOrder, ingestOrder, publishOrder []int
	e := New(Stages{
		Collect: func(it *Item, now time.Time, slot int) {
			time.Sleep(delays[it.Seq])
			okCollect(it, now, slot)
		},
		Log: func(it *Item, _ time.Time) {
			mu.Lock()
			logOrder = append(logOrder, it.Seq)
			mu.Unlock()
		},
		Ingest: func(it *Item, _ time.Time) {
			mu.Lock()
			ingestOrder = append(ingestOrder, it.Seq)
			mu.Unlock()
		},
		Publish: func(it *Item, _ time.Time) {
			mu.Lock()
			publishOrder = append(publishOrder, it.Seq)
			mu.Unlock()
		},
	}, nil)

	items, _, report := e.Run(sim.Epoch, fakeTargets(n), Options{Concurrency: 8})
	if len(items) != n {
		t.Fatalf("items = %d", len(items))
	}
	for name, order := range map[string][]int{
		"log": logOrder, "ingest": ingestOrder, "publish": publishOrder,
	} {
		if len(order) != n {
			t.Fatalf("%s stage ran %d times, want %d", name, len(order), n)
		}
		for i, seq := range order {
			if seq != i {
				t.Fatalf("%s stage order broken at %d: got seq %d (full: %v)", name, i, seq, order)
			}
		}
	}
	if report.Targets != n || report.Failed != 0 {
		t.Errorf("report targets=%d failed=%d", report.Targets, report.Failed)
	}
}

// TestBoundedPool: at no instant may more than Concurrency targets be
// inside the Collect stage — the engine must pool workers, not spawn a
// goroutine per target.
func TestBoundedPool(t *testing.T) {
	const n, conc = 40, 4
	var inflight, peak int64
	e := New(Stages{
		Collect: func(it *Item, now time.Time, slot int) {
			cur := atomic.AddInt64(&inflight, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			atomic.AddInt64(&inflight, -1)
			okCollect(it, now, slot)
		},
		Log: noop, Ingest: noop, Publish: noop,
	}, nil)
	e.Run(sim.Epoch, fakeTargets(n), Options{Concurrency: conc})
	if got := atomic.LoadInt64(&peak); got > conc {
		t.Errorf("collect in-flight peak = %d, want <= %d", got, conc)
	}
	if got := atomic.LoadInt64(&peak); got < 2 {
		t.Errorf("collect in-flight peak = %d; pool never overlapped", got)
	}
}

// TestPipelinedOverlap: with the slowest target registered last, the
// pipelined schedule must process earlier targets while the slow one is
// still collecting.
func TestPipelinedOverlap(t *testing.T) {
	const n = 8
	var slowDone atomic.Bool
	var early int64
	e := New(Stages{
		Collect: func(it *Item, now time.Time, slot int) {
			if it.Seq == n-1 {
				time.Sleep(5 * time.Millisecond)
				slowDone.Store(true)
			}
			okCollect(it, now, slot)
		},
		Log: func(it *Item, _ time.Time) {
			if !slowDone.Load() {
				atomic.AddInt64(&early, 1)
			}
		},
		Ingest: noop, Publish: noop,
	}, nil)
	e.Run(sim.Epoch, fakeTargets(n), Options{Concurrency: 2})
	if atomic.LoadInt64(&early) == 0 {
		t.Error("pipelined: no target was processed while the slow collection ran")
	}
}

// TestQueueDepth: a slow target registered first parks every faster
// later target in the reorder buffer; the high-water mark must record
// that head-of-line blocking.
func TestQueueDepth(t *testing.T) {
	const n = 6
	e := New(Stages{
		Collect: func(it *Item, now time.Time, slot int) {
			if it.Seq == 0 {
				time.Sleep(5 * time.Millisecond)
			}
			okCollect(it, now, slot)
		},
		Log: noop, Ingest: noop, Publish: noop,
	}, nil)
	_, _, report := e.Run(sim.Epoch, fakeTargets(n), Options{Concurrency: n})
	if report.MaxQueueDepth < n-1 {
		t.Errorf("max queue depth = %d, want >= %d (everything parked behind t00)",
			report.MaxQueueDepth, n-1)
	}
	// Waiters must account their park time to WaitNs.
	var waited int
	for _, tc := range report.PerTarget[1:] {
		if tc.WaitNs > 0 {
			waited++
		}
	}
	if waited == 0 {
		t.Error("no target recorded reorder-buffer wait time")
	}
}

// TestDeterministicClock: with an injected virtual clock the cycle's
// instrumentation is exact and reproducible — the engine makes no
// wall-clock reads of its own.
func TestDeterministicClock(t *testing.T) {
	run := func() *CycleReport {
		var ticks int64
		clock := func() time.Duration {
			return time.Duration(atomic.AddInt64(&ticks, 1)) * time.Millisecond
		}
		e := New(Stages{
			Collect: okCollect,
			Log:     noop, Ingest: noop, Publish: noop,
		}, clock)
		_, _, report := e.Run(sim.Epoch, fakeTargets(1), Options{Concurrency: 1})
		return report
	}
	r1, r2 := run(), run()
	// Clock calls, in order: cycle start, collect start/end, dequeue,
	// log end, ingest end, publish end, cycle end — each advancing 1ms,
	// so every stage reads exactly 1ms and the wall span is 7ms.
	want := TargetCycle{
		Target: "t00", Status: string(collect.StatusOK),
		CollectNs: int64(time.Millisecond),
		WaitNs:    int64(time.Millisecond),
		LogNs:     int64(time.Millisecond),
		IngestNs:  int64(time.Millisecond),
		PublishNs: int64(time.Millisecond),
	}
	if r1.PerTarget[0] != want {
		t.Errorf("per-target timings = %+v, want %+v", r1.PerTarget[0], want)
	}
	if r1.WallNs != int64(7*time.Millisecond) {
		t.Errorf("wall = %v, want 7ms", time.Duration(r1.WallNs))
	}
	if r1.PerTarget[0] != r2.PerTarget[0] || r1.WallNs != r2.WallNs {
		t.Error("virtual-clock instrumentation not reproducible across runs")
	}
}

// TestGapFlow: a failed collection must still flow through the ordered
// stages (gap handling is stage-local), count as a gap in the target's
// cumulative state, and fail the report.
func TestGapFlow(t *testing.T) {
	var logged, ingested int64
	e := New(Stages{
		Collect: func(it *Item, now time.Time, slot int) {
			if it.Seq == 1 {
				it.Res = collect.Result{
					Target: it.Target.Name, Status: collect.StatusDegraded,
					Err: errors.New("refused"),
				}
				return
			}
			okCollect(it, now, slot)
		},
		Log:    func(*Item, time.Time) { atomic.AddInt64(&logged, 1) },
		Ingest: func(*Item, time.Time) { atomic.AddInt64(&ingested, 1) },
		Publish: func(it *Item, _ time.Time) {
			if it.Failed() {
				return
			}
		},
	}, nil)
	items, _, report := e.Run(sim.Epoch, fakeTargets(3), Options{Concurrency: 2})
	if logged != 3 || ingested != 3 {
		t.Errorf("log/ingest ran %d/%d times, want 3/3 (gaps flow through)", logged, ingested)
	}
	if !items[1].Failed() || items[0].Failed() || items[2].Failed() {
		t.Errorf("failure flags wrong: %v %v %v", items[0].Failed(), items[1].Failed(), items[2].Failed())
	}
	if report.Failed != 1 {
		t.Errorf("report.Failed = %d", report.Failed)
	}
	st := e.Stats()
	for _, ts := range st.Targets {
		wantGaps := 0
		if ts.Target == "t01" {
			wantGaps = 1
		}
		if ts.Gaps != wantGaps || ts.Cycles != 1 {
			t.Errorf("%s: cycles=%d gaps=%d", ts.Target, ts.Cycles, ts.Gaps)
		}
	}
}

// TestAggregateStage: the merge stage sees the successful snapshots in
// registration order, exactly once per cycle, and is skipped when
// disabled or when nothing succeeded.
func TestAggregateStage(t *testing.T) {
	var got [][]string
	stages := Stages{
		Collect: func(it *Item, now time.Time, slot int) {
			if it.Seq == 2 {
				it.Res = collect.Result{Target: it.Target.Name, Err: errors.New("down")}
				return
			}
			okCollect(it, now, slot)
		},
		Log: noop, Ingest: noop, Publish: noop,
		Aggregate: func(_ time.Time, snaps []*tables.Snapshot) *process.CycleStats {
			names := make([]string, len(snaps))
			for i, sn := range snaps {
				names[i] = sn.Target
			}
			got = append(got, names)
			return &process.CycleStats{Target: "aggregate"}
		},
	}

	e := New(stages, nil)
	_, aggStats, _ := e.Run(sim.Epoch, fakeTargets(4), Options{Concurrency: 4, Aggregate: true})
	if aggStats == nil {
		t.Fatal("aggregate stats missing")
	}
	if len(got) != 1 {
		t.Fatalf("aggregate ran %d times", len(got))
	}
	want := []string{"t00", "t01", "t03"}
	if len(got[0]) != len(want) {
		t.Fatalf("aggregate saw %v, want %v", got[0], want)
	}
	for i := range want {
		if got[0][i] != want[i] {
			t.Fatalf("aggregate saw %v, want %v (registration order)", got[0], want)
		}
	}

	// Disabled: stage must not run.
	got = nil
	e2 := New(stages, nil)
	if _, aggStats, _ := e2.Run(sim.Epoch, fakeTargets(2), Options{Concurrency: 1}); aggStats != nil || got != nil {
		t.Error("aggregate ran with Options.Aggregate unset")
	}

	// All targets failed: nothing to merge.
	e3 := New(Stages{
		Collect: func(it *Item, _ time.Time, _ int) {
			it.Res = collect.Result{Target: it.Target.Name, Err: errors.New("down")}
		},
		Log: noop, Ingest: noop, Publish: noop,
		Aggregate: stages.Aggregate,
	}, nil)
	got = nil
	if _, aggStats, _ := e3.Run(sim.Epoch, fakeTargets(2), Options{Concurrency: 2, Aggregate: true}); aggStats != nil || got != nil {
		t.Error("aggregate ran over zero successful snapshots")
	}
}

// TestStatsAccumulate: cumulative engine stats fold every cycle's
// per-stage observations into totals and per-target views.
func TestStatsAccumulate(t *testing.T) {
	e := New(Stages{
		Collect: okCollect,
		Log:     noop, Ingest: noop, Publish: noop,
	}, nil)
	const cycles, n = 3, 2
	for i := 0; i < cycles; i++ {
		e.Run(sim.Epoch.Add(time.Duration(i)*time.Hour), fakeTargets(n), Options{Concurrency: 2})
	}
	st := e.Stats()
	if st.Cycles != cycles {
		t.Errorf("cycles = %d", st.Cycles)
	}
	if got := st.Stages[StageCollect].Count; got != cycles*n {
		t.Errorf("total collect observations = %d, want %d", got, cycles*n)
	}
	if len(st.Targets) != n {
		t.Fatalf("target stats = %d entries", len(st.Targets))
	}
	// Registration order: last seq sorts t00 before t01.
	if st.Targets[0].Target != "t00" || st.Targets[1].Target != "t01" {
		t.Errorf("target order = %s, %s", st.Targets[0].Target, st.Targets[1].Target)
	}
	for _, ts := range st.Targets {
		if ts.Cycles != cycles || ts.Successes != cycles || ts.Gaps != 0 {
			t.Errorf("%s: %+v", ts.Target, ts)
		}
		if ts.Stages[StageIngest].Count != cycles {
			t.Errorf("%s ingest count = %d", ts.Target, ts.Stages[StageIngest].Count)
		}
	}
	if rep := st.LastCycle; rep == nil || rep.Cycle != cycles {
		t.Errorf("last report = %+v", rep)
	}
}

// TestZeroTargets: an empty cycle completes without hanging and reports
// cleanly.
func TestZeroTargets(t *testing.T) {
	e := New(Stages{
		Collect: okCollect,
		Log:     noop, Ingest: noop, Publish: noop,
	}, nil)
	items, aggStats, report := e.Run(sim.Epoch, nil, Options{Concurrency: 4, Aggregate: true})
	if len(items) != 0 || aggStats != nil {
		t.Errorf("items=%d agg=%v", len(items), aggStats)
	}
	if report.Targets != 0 || report.Cycle != 1 {
		t.Errorf("report = %+v", report)
	}
}

// TestShutdownLeavesNoGoroutines: every goroutine the engine spawns for
// a cycle — the bounded worker pool and the feeder that closes the
// channels behind it — must have exited by the time Run returns. A
// leaked worker would accumulate across cycles and, in the paper's
// months-long monitoring regime, across hundreds of thousands of them.
// TestGoroutinesReturnToBaseline (shard) holds the collector's sessions
// and the supervisor's workers to the same rule.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	e := New(Stages{
		Collect: func(it *Item, now time.Time, slot int) {
			time.Sleep(50 * time.Microsecond)
			okCollect(it, now, slot)
		},
		Log: noop, Ingest: noop, Publish: noop,
	}, nil)

	before := runtime.NumGoroutine()
	for cycle := 0; cycle < 5; cycle++ {
		e.Run(sim.Epoch, fakeTargets(24), Options{Concurrency: 8})
	}
	// A finished goroutine is unscheduled asynchronously, so the count
	// may trail Run's return by a moment; poll briefly before failing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: before=%d after=%d; stacks:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCollectSlotsAreExclusive: Collect is told its pool slot, below
// Options.Concurrency, and no two Collect calls in flight share one — the
// guarantee that lets the cycle core give each slot one read buffer.
func TestCollectSlotsAreExclusive(t *testing.T) {
	const workers = 4
	busy := make([]atomic.Bool, workers)
	var bad atomic.Int32
	e := New(Stages{
		Collect: func(it *Item, now time.Time, slot int) {
			if slot < 0 || slot >= workers || busy[slot].Swap(true) {
				bad.Add(1)
				return
			}
			time.Sleep(100 * time.Microsecond)
			busy[slot].Store(false)
			okCollect(it, now, slot)
		},
		Log: noop, Ingest: noop, Publish: noop,
	}, nil)
	e.Run(sim.Epoch, fakeTargets(24), Options{Concurrency: workers})
	if bad.Load() != 0 {
		t.Fatalf("%d Collect calls on a slot out of range or in use", bad.Load())
	}
}
