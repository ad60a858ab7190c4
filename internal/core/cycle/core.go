// Package cycle is the one monitoring-cycle core: the paper's fixed
// chain — Data Collector → Router-Table Processor → Data Logger → Data
// Processor → Output Interface — wired into the stage engine exactly
// once. A mantra.Monitor is a Core plus the HTTP server and the
// checkpoint cadence; a shard worker is a Core plus supervision. Both
// run the same stages and the same WAL commit, so the unsharded daemon
// and a fleet of shards differ only in how Cores are composed.
//
// The Log stage and the aggregate step update the in-memory delta
// logger as they go but only buffer the durable frames, in the order
// the sequencer produced them; Commit writes the buffer to the store
// after the engine run. Where the owner places Commit is its fence: the
// Monitor commits straight after Run, a shard worker after its kill
// check, so a worker killed mid-cycle persists nothing for that cycle.
package cycle

import (
	"fmt"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/engine"
	"repro/internal/core/logger"
	"repro/internal/core/process"
	"repro/internal/core/tables"
)

// AggregateTarget is the synthetic target name the combined
// multi-router view is logged, ingested and published under.
const AggregateTarget = "aggregate"

// frame is one buffered WAL record: a delta, or a gap marker when gap
// is set.
type frame struct {
	target      string
	rec         logger.CycleRecord
	fullEntries uint64
	at          time.Time
	reason      string
	gap         bool
}

// Core owns one processing stack and its engine. The exported fields
// are the modules themselves: owners read them between cycles and may
// replace Collector, Log and Store (policy swap, archive recovery,
// store shutdown) — the stages read the fields at call time. A Core,
// its modules included, belongs to one goroutine at a time: the
// Monitor's driver, or a shard worker while its cycle is in flight and
// the supervisor between cycles. Readers elsewhere read what the owner
// published.
type Core struct {
	Collector *collect.Collector
	Log       *logger.Logger
	Proc      *process.Processor
	Engine    *engine.Engine
	// Commands is the dump set collected from every target each cycle.
	Commands []string
	// Store is the durable WAL Commit writes to; nil keeps the core
	// in-memory only.
	Store *logger.Store
	// Publish, when set, receives every successful snapshot (and the
	// aggregate view) at the Output Interface stage.
	Publish func(*tables.Snapshot)

	// frames is the current cycle's WAL records in stage order.
	frames []frame
	// slots are the running cycle's read buffers, one per pool slot, nil
	// between cycles; readMax, the most one read held last cycle, sizes
	// them, and falls again after an incident has inflated a table.
	slots   []collect.ReadBuffer
	readMax int
}

// New returns a core with fresh modules under the given resilience
// policy. A nil clock gives the engine real monotonic time.
func New(policy collect.Policy, commands []string, clock engine.Clock) *Core {
	c := &Core{
		Collector: collect.NewCollector(policy),
		Log:       logger.New(),
		Proc:      process.New(),
		Commands:  commands,
	}
	c.Engine = engine.New(engine.Stages{
		Collect:   c.stageCollect,
		Log:       c.stageLog,
		Ingest:    c.stageIngest,
		Publish:   c.stagePublish,
		Aggregate: c.aggregate,
	}, clock)
	return c
}

// Run drives one cycle over targets through the engine, in memory only:
// the cycle's WAL frames wait in the buffer for Commit. Frames a
// previous Run left uncommitted are dropped. Every target gets its
// collector entry here, before the pool starts, so the pool workers
// only look their own up; every pool slot gets its read buffer.
func (c *Core) Run(now time.Time, targets []collect.Target, opts engine.Options) ([]*engine.Item, *process.CycleStats, *engine.CycleReport) {
	c.frames = c.frames[:0]
	for _, t := range targets {
		c.Collector.Track(t.Name)
	}
	c.slots = make([]collect.ReadBuffer, max(opts.Concurrency, 1))
	for i := range c.slots {
		c.slots[i].Size = c.readMax
	}
	items, agg, report := c.Engine.Run(now, targets, opts)
	c.readMax = 0
	for _, b := range c.slots {
		c.readMax = max(c.readMax, b.Peak)
	}
	c.slots = nil
	return items, agg, report
}

// Commit writes the buffered frames to the store in stage order. A
// failed frame degrades that record to in-memory only, never the cycle:
// every frame is attempted and the last error is returned.
func (c *Core) Commit() error {
	var last error
	if c.Store != nil {
		for i := range c.frames {
			f := &c.frames[i]
			var err error
			if f.gap {
				err = c.Store.AppendGap(f.target, f.at, f.reason)
			} else {
				err = c.Store.AppendDelta(f.target, f.rec, f.fullEntries)
			}
			if err != nil {
				last = err
			}
		}
	}
	c.frames = c.frames[:0]
	return last
}

// stageCollect runs the resilient collection of one target (breaker
// check, retries) on its pool slot's read buffer, scanning each dump
// into the local tables as its prompt arrives; a structural defect is
// retried and leaves no snapshot. A sound capture whose dumps did not
// parse degrades the target and counts against its breaker: a router
// emitting unparseable dumps is as unhealthy as one refusing logins.
// Safe for concurrent use across targets: each touches only its own
// target's collector entry and its own slot.
func (c *Core) stageCollect(it *engine.Item, now time.Time, slot int) {
	sc := tables.Scanner{Target: it.Target.Name, Prompt: it.Target.Prompt, At: now}
	it.Res = c.Collector.Collect(it.Target, c.Commands, now, &c.slots[slot], &sc)
	it.Snapshot = sc.Snapshot
	if it.Res.Err == nil && sc.ParseErr != nil {
		err := fmt.Errorf("collect %s: snapshot rejected: %w", it.Target.Name, sc.ParseErr)
		c.Collector.RecordFailure(it.Target.Name, now, err)
		it.Res.Status = collect.StatusDegraded
		it.Res.Err = err
	}
}

// stageLog appends the cycle to the delta log and buffers its WAL
// frame; a failed target gets an explicit gap marker instead.
func (c *Core) stageLog(it *engine.Item, now time.Time) {
	if it.Snapshot == nil {
		reason := ""
		if it.Res.Err != nil {
			reason = it.Res.Err.Error()
		}
		c.Log.MarkGap(it.Res.Target, now, reason)
		if c.Store != nil {
			c.frames = append(c.frames, frame{target: it.Res.Target, at: now, reason: reason, gap: true})
		}
		return
	}
	c.logDelta(it.Snapshot)
}

// logDelta appends a snapshot to the delta log and buffers the record
// as the log keeps it: Commit writes its bytes behind the frame header,
// and nothing in the stage decodes them.
func (c *Core) logDelta(sn *tables.Snapshot) {
	rec := c.Log.AppendEncoded(sn)
	if c.Store != nil {
		c.frames = append(c.frames, frame{target: sn.Target, rec: rec, fullEntries: uint64(len(sn.Pairs) + len(sn.Routes))})
	}
}

// stageIngest feeds the snapshot into the data processor; failed
// targets get a gap marker on their series instead.
func (c *Core) stageIngest(it *engine.Item, now time.Time) {
	if it.Snapshot == nil {
		c.Proc.MarkGap(it.Res.Target, now)
		return
	}
	st := c.Proc.Ingest(it.Snapshot)
	it.Stats = &st
}

// stagePublish hands the snapshot to the owner's output hook.
func (c *Core) stagePublish(it *engine.Item, _ time.Time) {
	if it.Snapshot != nil && c.Publish != nil {
		c.Publish(it.Snapshot)
	}
}

// aggregate merges the cycle's successful snapshots into the combined
// view and runs it through the same log/ingest/publish path. It runs
// only when the cycle's options ask for it.
func (c *Core) aggregate(now time.Time, snaps []*tables.Snapshot) *process.CycleStats {
	agg := tables.MergeSnapshots(AggregateTarget, now, snaps...)
	c.logDelta(agg)
	st := c.Proc.Ingest(agg)
	if c.Publish != nil {
		c.Publish(agg)
	}
	return &st
}

// RouteStability decodes the target's delta-log records, in order, and
// folds them into a fresh route-stability tracker
// (RouteStability.ObserveDelta): the tracker is derived from the log
// when it is read, so no cycle, handoff or recovery keeps or rebuilds
// one, and the call costs O(history). It is nil for a target with no
// logged table — unknown, or only gaps so far — and for the synthetic
// AggregateTarget.
func (c *Core) RouteStability(target string) *process.RouteStability {
	n := c.Log.Cycles(target)
	if target == AggregateTarget || n == 0 {
		return nil
	}
	rs := process.NewRouteStability()
	for i := 0; i < n; i++ {
		rec, _ := c.Log.Record(target, i) // the log's own bytes decode
		rs.ObserveDelta(rec.At, rec.Routes.Upserted, rec.Routes.Removed)
	}
	return rs
}

// HealthRow returns what both /health builders show for one target: the
// collector's ledger (an empty row carrying the name before the first
// collection) and the gap count — how many cycles produced no data for
// the target, from collection failures or a handoff's dark cycles.
func (c *Core) HealthRow(name string) (collect.TargetHealth, int) {
	h, _ := c.Collector.TargetHealth(name)
	h.Target = name
	return h, c.Proc.GapCount(name)
}
