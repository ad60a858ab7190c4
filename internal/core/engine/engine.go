// Package engine schedules Mantra's monitoring cycle as the staged
// pipeline the paper's §III design describes — Data Collector →
// Router-Table Processor → Data Logger → Data Processor → Output
// Interface. The stage implementations are supplied once, by
// internal/core/cycle; the engine is the schedule and the bookkeeping.
//
// Each registered target flows through the stages independently:
// Collect and Normalize run concurrently on a bounded worker pool, and a
// sequence-numbered reorder buffer admits finished targets to the
// ordered stages (Log → Ingest → Publish) strictly in registration
// order. That keeps every downstream artifact — delta log records,
// series points, anomaly order, archive WAL frames — byte-identical to
// the serial schedule (a pool of one) while a slow router no longer
// delays the processing of every healthy one. The optional Aggregate
// stage runs once per cycle over the successful snapshots, still in
// registration order.
//
// The engine also owns the per-target state the Monitor used to scatter
// across parallel maps (latest snapshot, route-stability tracker,
// gap/success bookkeeping) and instruments every stage with per-target
// timings and reorder-queue depth counters on an injected monotonic
// clock, so the pipeline's speedup over the serial schedule is
// measured, not asserted.
package engine

import (
	"sync"
	"time"

	"repro/internal/addr"
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
	// Snapshot is the normalized table snapshot; nil when collection or
	// normalization failed, in which case the item flows through the
	// remaining stages as a gap.
	Snapshot *tables.Snapshot
	// ParseErr is why a sound capture did not parse, for Normalize.
	ParseErr error
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
	collectEnd   time.Duration
	normalizeEnd time.Duration
	// enqueued..dequeued is the time parked in the reorder buffer
	// waiting for earlier-registered targets (head-of-line blocking).
	enqueued   time.Duration
	dequeued   time.Duration
	logEnd     time.Duration
	ingestEnd  time.Duration
	publishEnd time.Duration
}

// Stages supplies the monitor-side implementations of the pipeline
// stages. Collect and Normalize are called concurrently across targets
// from the worker pool and must be safe for concurrent use across
// distinct targets. Log, Ingest, Publish and Aggregate are invoked from
// a single goroutine, in registration order, and need no locking
// against one another. Normalize is skipped when Collect failed; Log,
// Ingest and Publish always run so gap handling stays stage-local.
type Stages struct {
	Collect   func(it *Item, now time.Time)
	Normalize func(it *Item, now time.Time)
	Log       func(it *Item, now time.Time)
	Ingest    func(it *Item, now time.Time)
	Publish   func(it *Item, now time.Time)
	// Aggregate runs once per cycle after every item has been
	// published, over the successful snapshots in registration order.
	// Nil disables the stage.
	Aggregate func(now time.Time, snaps []*tables.Snapshot) *process.CycleStats
}

// Options parameterize one cycle run.
type Options struct {
	// Concurrency bounds the Collect/Normalize worker pool. Values
	// below 1 mean 1; values above the target count are clamped to it.
	Concurrency int
	// Aggregate enables the final merge stage (needs Stages.Aggregate).
	Aggregate bool
}

// targetState consolidates the per-target state the Monitor used to
// keep in parallel maps, plus the engine's own bookkeeping.
type targetState struct {
	name      string
	latest    *tables.Snapshot
	stability *process.RouteStability
	cycles    int
	successes int
	gaps      int
	lastSeq   int
	stages    map[Stage]*StageStat
}

// Engine runs monitoring cycles through the staged pipeline and owns
// the per-target state and instrumentation. An Engine is safe for
// concurrent state reads (Latest, Stability, Stats) while a cycle runs;
// Run itself must not be called concurrently with another Run.
type Engine struct {
	stages Stages
	clock  Clock

	mu     sync.Mutex
	states map[string]*targetState
	cycles int
	conc   int
	// Cumulative per-stage timing instrumentation — local to this
	// engine's life, deliberately not part of any state transfer.
	totals map[Stage]*StageStat
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
		totals: make(map[Stage]*StageStat),
	}
}

// state returns (creating if needed) a target's consolidated state.
// Callers must hold e.mu.
func (e *Engine) state(name string) *targetState {
	st := e.states[name]
	if st == nil {
		st = &targetState{name: name, stages: make(map[Stage]*StageStat)}
		e.states[name] = st
	}
	return st
}

// Latest returns the most recent snapshot recorded for a target, or nil.
func (e *Engine) Latest(name string) *tables.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st := e.states[name]; st != nil {
		return st.latest
	}
	return nil
}

// SetLatest records a target's most recent snapshot out of band — the
// aggregate stage and archive recovery use it.
func (e *Engine) SetLatest(name string, sn *tables.Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.state(name).latest = sn
}

// Stability returns a target's route-stability tracker, or nil before
// its first successful cycle.
func (e *Engine) Stability(name string) *process.RouteStability {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st := e.states[name]; st != nil {
		return st.stability
	}
	return nil
}

// ObserveStability folds one logged cycle's route delta into the
// target's stability tracker, creating the tracker on first use. The
// core's Log stage calls it with the record it has just appended and
// archive recovery with each WAL-tail record, so a live tracker and a
// recovered one are driven by one function.
func (e *Engine) ObserveStability(target string, at time.Time, upserted []tables.RouteEntry, removed []addr.Prefix) {
	e.mu.Lock()
	st := e.state(target)
	if st.stability == nil {
		st.stability = process.NewRouteStability()
	}
	rs := st.stability
	e.mu.Unlock()
	// Outside the lock: the tracker is only ever driven from the single
	// ordered-stage goroutine (or recovery, before cycles start), the
	// lock guards just the state map.
	rs.ObserveDelta(at, upserted, removed)
}

// StabilityTrackers returns the current per-target stability trackers —
// the checkpoint export path.
func (e *Engine) StabilityTrackers() map[string]*process.RouteStability {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]*process.RouteStability)
	for name, st := range e.states {
		if st.stability != nil {
			out[name] = st.stability
		}
	}
	return out
}

// SetStability installs (or, with nil, clears) one target's stability
// tracker, leaving every other target's untouched — the shard-handoff
// transfer path, where a survivor engine grafts a moved target's
// tracker in next to its own live ones.
func (e *Engine) SetStability(name string, rs *process.RouteStability) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.state(name).stability = rs
}

// ImportStability replaces targets' stability trackers wholesale — the
// checkpoint recovery path.
func (e *Engine) ImportStability(trackers map[string]*process.RouteStability) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.states {
		st.stability = nil
	}
	for name, rs := range trackers {
		e.state(name).stability = rs
	}
}

// Run executes one monitoring cycle over targets, stamped at now, and
// returns the items in registration order plus the aggregate stage's
// statistics (nil when disabled or nothing succeeded) and the cycle's
// instrumentation report. Run never reads the wall clock; all
// timestamps come from now and all timings from the injected cycle
// clock.
//
// The budget covers the per-target Item, the worker closure, and the
// item-slice growth — one unavoidable allocation set per cycle member.
//
//mantra:hotpath budget=3
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

	// Collect/Normalize fan out on the bounded pool; finished items
	// funnel into the reorder buffer via the collected channel.
	jobs := make(chan *Item)
	collected := make(chan *Item, n)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				it.t.collectStart = clock()
				e.stages.Collect(it, now)
				it.t.collectEnd = clock()
				if it.Res.Err == nil {
					e.stages.Normalize(it, now)
				}
				it.t.normalizeEnd = clock()
				it.t.enqueued = it.t.normalizeEnd
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
		if it.Snapshot != nil {
			e.SetLatest(it.Snapshot.Target, it.Snapshot)
		}
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
			report.observe(StageAggregate, clock()-aStart)
		}
	}

	report.WallNs = (clock() - t0).Nanoseconds()
	e.finishCycle(items, report)
	return items, aggStats, report
}

// finishCycle folds one cycle's item timings into the report and the
// engine's cumulative per-target and per-stage totals.
//
//mantra:hotpath budget=10
func (e *Engine) finishCycle(items []*Item, report *CycleReport) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cycles++
	e.conc = report.Concurrency
	report.Cycle = e.cycles
	for _, it := range items {
		tc := TargetCycle{
			Target:      it.Target.Name,
			Seq:         it.Seq,
			Status:      string(it.Res.Status),
			CollectNs:   (it.t.collectEnd - it.t.collectStart).Nanoseconds(),
			NormalizeNs: (it.t.normalizeEnd - it.t.collectEnd).Nanoseconds(),
			WaitNs:      (it.t.dequeued - it.t.enqueued).Nanoseconds(),
			LogNs:       (it.t.logEnd - it.t.dequeued).Nanoseconds(),
			IngestNs:    (it.t.ingestEnd - it.t.logEnd).Nanoseconds(),
			PublishNs:   (it.t.publishEnd - it.t.ingestEnd).Nanoseconds(),
		}
		report.PerTarget = append(report.PerTarget, tc)
		report.observe(StageCollect, time.Duration(tc.CollectNs))
		report.observe(StageNormalize, time.Duration(tc.NormalizeNs))
		report.observe(StageLog, time.Duration(tc.LogNs))
		report.observe(StageIngest, time.Duration(tc.IngestNs))
		report.observe(StagePublish, time.Duration(tc.PublishNs))

		st := e.state(it.Target.Name)
		st.cycles++
		st.lastSeq = it.Seq
		if it.Snapshot == nil {
			st.gaps++
			report.Failed++
		} else {
			st.successes++
		}
		for _, sc := range []struct {
			stage Stage
			ns    int64
		}{
			{StageCollect, tc.CollectNs},
			{StageNormalize, tc.NormalizeNs},
			{StageLog, tc.LogNs},
			{StageIngest, tc.IngestNs},
			{StagePublish, tc.PublishNs},
		} {
			stat := st.stages[sc.stage]
			if stat == nil {
				stat = &StageStat{}
				st.stages[sc.stage] = stat
			}
			stat.observe(time.Duration(sc.ns))
		}
	}
	for stage, stat := range report.Stages {
		tot := e.totals[stage]
		if tot == nil {
			tot = &StageStat{}
			e.totals[stage] = tot
		}
		tot.merge(stat)
	}
	e.last = report
}
