// Package engine schedules Mantra's monitoring cycle as the staged
// pipeline the paper's §III design describes — Data Collector →
// Router-Table Processor → Data Logger → Data Processor → Output
// Interface. The stage implementations are supplied once, by
// internal/core/cycle; the engine is only the schedule and its
// instrumentation.
//
// Each registered target flows through the stages independently:
// Collect runs concurrently on a bounded worker pool, and a
// sequence-numbered reorder buffer admits finished targets to the
// ordered stages (Log → Ingest → Publish) strictly in registration
// order. That keeps every downstream artifact — delta log records,
// series points, anomaly order, archive WAL frames — byte-identical to
// the serial schedule (a pool of one) while a slow router no longer
// delays the processing of every healthy one. The optional Aggregate
// stage runs once per cycle over the successful snapshots, still in
// registration order.
//
// The engine holds no target state the stages own: the latest snapshot
// is the delta logger's. It keeps only its own bookkeeping — per-target
// cycle, success and gap counts — and instruments every stage with
// per-target timings and reorder-queue depth counters on an injected
// monotonic clock, so the pipeline's speedup over the serial schedule
// is measured, not asserted.
package engine

import (
	"sync"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/process"
	"repro/internal/core/tables"
)

// Item is one target's journey through one cycle's stages. The worker
// pool fills Res and Snapshot; the ordered stages fill Stats.
type Item struct {
	// Seq is the target's registration index. The reorder buffer
	// releases items downstream strictly in Seq order.
	Seq    int
	Target collect.Target
	// Res is the collection outcome, set by the Collect stage.
	Res collect.Result
	// Snapshot is the normalized table snapshot; nil when collection
	// failed, in which case the item flows through the remaining stages
	// as a gap.
	Snapshot *tables.Snapshot
	// Stats is set by the Ingest stage on success.
	Stats *process.CycleStats

	t itemTimings
}

// Failed reports whether the item produced no snapshot.
func (it *Item) Failed() bool { return it.Snapshot == nil }

// itemTimings records the item's stage boundaries as offsets on the
// cycle clock.
type itemTimings struct {
	collectStart time.Duration
	// collectEnd..dequeued is the time parked in the reorder buffer
	// waiting for earlier-registered targets (head-of-line blocking).
	collectEnd time.Duration
	dequeued   time.Duration
	logEnd     time.Duration
	ingestEnd  time.Duration
	publishEnd time.Duration
}

// Stages supplies the monitor-side implementations of the pipeline
// stages. Collect is called concurrently across targets from the worker
// pool and must be safe for concurrent use across distinct targets; it
// is told its pool slot, below Options.Concurrency, which no other
// worker uses meanwhile, and leaves the item's snapshot nil on any
// failure, a dump that did not parse included. Log, Ingest, Publish and
// Aggregate are invoked from a single goroutine, in registration order,
// and need no locking against one another. They always run, so gap
// handling stays stage-local.
type Stages struct {
	Collect func(it *Item, now time.Time, slot int)
	Log     func(it *Item, now time.Time)
	Ingest  func(it *Item, now time.Time)
	Publish func(it *Item, now time.Time)
	// Aggregate runs once per cycle after every item has been
	// published, over the successful snapshots in registration order.
	// Nil disables the stage.
	Aggregate func(now time.Time, snaps []*tables.Snapshot) *process.CycleStats
}

// Options parameterize one cycle run.
type Options struct {
	// Concurrency bounds the Collect worker pool. Values below 1 mean
	// 1; values above the target count are clamped to it.
	Concurrency int
	// Aggregate enables the final merge stage (needs Stages.Aggregate).
	Aggregate bool
}

// targetState is the engine's bookkeeping for one target.
type targetState struct {
	name      string
	cycles    int
	successes int
	gaps      int
	lastSeq   int
	stages    map[Stage]StageStat
}

// Engine runs monitoring cycles through the staged pipeline and keeps
// their instrumentation. An Engine belongs to the goroutine that calls
// Run: every method is called from it, and every state write happens
// there — the ordered stages and finishCycle run on it, and the pool
// workers Run starts touch no engine state. Readers on other goroutines
// read the Stats their owner published.
type Engine struct {
	stages Stages
	clock  Clock

	states map[string]*targetState
	cycles int
	conc   int
	// Cumulative per-stage timing instrumentation — local to this
	// engine's life, deliberately not part of any state transfer.
	totals map[Stage]StageStat
	last   *CycleReport
}

// New returns an engine over the given stage implementations. A nil
// clock gets a real monotonic clock (NewMonotonicClock); simulations
// pass a virtual one so instrumentation stays deterministic. The clock
// must be safe for concurrent use — the worker pool reads it from
// several goroutines.
func New(stages Stages, clock Clock) *Engine {
	if clock == nil {
		clock = NewMonotonicClock()
	}
	return &Engine{
		stages: stages,
		clock:  clock,
		states: make(map[string]*targetState),
		totals: make(map[Stage]StageStat),
	}
}

// Run executes one monitoring cycle over targets, stamped at now, and
// returns the items in registration order plus the aggregate stage's
// statistics (nil when disabled or nothing succeeded) and the cycle's
// instrumentation report. Run never reads the wall clock; all
// timestamps come from now and all timings from the injected cycle
// clock.
func (e *Engine) Run(now time.Time, targets []collect.Target, opts Options) ([]*Item, *process.CycleStats, *CycleReport) {
	n := len(targets)
	conc := opts.Concurrency
	if conc < 1 {
		conc = 1
	}
	if n > 0 && conc > n {
		conc = n
	}
	clock := e.clock
	t0 := clock()

	items := make([]*Item, n)
	for i, t := range targets {
		items[i] = &Item{Seq: i, Target: t}
	}

	report := &CycleReport{
		At:          now,
		Concurrency: conc,
		Targets:     n,
		Stages:      make(map[Stage]StageStat),
	}

	// Collect fans out on the bounded pool; finished items funnel into
	// the reorder buffer via the collected channel.
	jobs := make(chan *Item)
	collected := make(chan *Item, n)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				it.t.collectStart = clock()
				e.stages.Collect(it, now, w)
				it.t.collectEnd = clock()
				collected <- it
			}
		}()
	}
	go func() {
		for _, it := range items {
			jobs <- it
		}
		close(jobs)
		wg.Wait()
		close(collected)
	}()

	// The sequencer runs the ordered stages on this goroutine, admitting
	// items strictly in Seq order as they come out of the pool.
	processItem := func(it *Item) {
		it.t.dequeued = clock()
		e.stages.Log(it, now)
		it.t.logEnd = clock()
		e.stages.Ingest(it, now)
		it.t.ingestEnd = clock()
		e.stages.Publish(it, now)
		it.t.publishEnd = clock()
	}
	pending := make(map[int]*Item, n)
	next := 0
	for it := range collected {
		pending[it.Seq] = it
		if len(pending) > report.MaxQueueDepth {
			report.MaxQueueDepth = len(pending)
		}
		for pending[next] != nil {
			rdy := pending[next]
			delete(pending, next)
			next++
			processItem(rdy)
		}
	}

	var aggStats *process.CycleStats
	if opts.Aggregate && e.stages.Aggregate != nil {
		snaps := make([]*tables.Snapshot, 0, n)
		for _, it := range items {
			if it.Snapshot != nil {
				snaps = append(snaps, it.Snapshot)
			}
		}
		if len(snaps) > 0 {
			aStart := clock()
			aggStats = e.stages.Aggregate(now, snaps)
			observe(report.Stages, StageAggregate, clock()-aStart)
		}
	}

	report.WallNs = (clock() - t0).Nanoseconds()
	e.finishCycle(items, report)
	return items, aggStats, report
}

// finishCycle folds one cycle's item timings into the report and the
// engine's cumulative per-target and per-stage totals.
func (e *Engine) finishCycle(items []*Item, report *CycleReport) {
	e.cycles++
	e.conc = report.Concurrency
	report.Cycle = e.cycles
	for _, it := range items {
		tc := TargetCycle{
			Target:    it.Target.Name,
			Seq:       it.Seq,
			Status:    string(it.Res.Status),
			CollectNs: (it.t.collectEnd - it.t.collectStart).Nanoseconds(),
			WaitNs:    (it.t.dequeued - it.t.collectEnd).Nanoseconds(),
			LogNs:     (it.t.logEnd - it.t.dequeued).Nanoseconds(),
			IngestNs:  (it.t.ingestEnd - it.t.logEnd).Nanoseconds(),
			PublishNs: (it.t.publishEnd - it.t.ingestEnd).Nanoseconds(),
		}
		report.PerTarget = append(report.PerTarget, tc)
		st := e.states[tc.Target]
		if st == nil {
			st = &targetState{name: tc.Target, stages: make(map[Stage]StageStat)}
			e.states[tc.Target] = st
		}
		for _, sc := range [...]struct {
			stage Stage
			ns    int64
		}{{StageCollect, tc.CollectNs}, {StageLog, tc.LogNs}, {StageIngest, tc.IngestNs}, {StagePublish, tc.PublishNs}} {
			observe(report.Stages, sc.stage, time.Duration(sc.ns))
			observe(st.stages, sc.stage, time.Duration(sc.ns))
		}
		st.cycles++
		st.lastSeq = it.Seq
		if it.Snapshot == nil {
			st.gaps++
			report.Failed++
		} else {
			st.successes++
		}
	}
	for stage, stat := range report.Stages {
		tot := e.totals[stage]
		tot.merge(stat)
		e.totals[stage] = tot
	}
	e.last = report
}
