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
// store shutdown) — the stages read the fields at call time. Run and
// Commit must not be called concurrently with each other or themselves.
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
		Normalize: c.stageNormalize,
		Log:       c.stageLog,
		Ingest:    c.stageIngest,
		Publish:   c.stagePublish,
		Aggregate: c.aggregate,
	}, clock)
	return c
}

// Run drives one cycle over targets through the engine, in memory only:
// the cycle's WAL frames wait in the buffer for Commit. Frames a
// previous Run left uncommitted are dropped.
func (c *Core) Run(now time.Time, targets []collect.Target, opts engine.Options) ([]*engine.Item, *process.CycleStats, *engine.CycleReport) {
	c.frames = c.frames[:0]
	return c.Engine.Run(now, targets, opts)
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
// check, retries) and scans each capture into the local tables once; a
// structural defect is retried and leaves no snapshot. Safe for
// concurrent use across targets — the collector serializes its own
// bookkeeping. The budget is the check closure.
//
//mantra:hotpath budget=1
func (c *Core) stageCollect(it *engine.Item, now time.Time) {
	it.Res = c.Collector.Collect(it.Target, c.Commands, now, func(dumps []collect.Dump) (defect error) {
		if it.Snapshot, it.ParseErr, defect = tables.ScanDumps(it.Target.Prompt, dumps); defect != nil {
			it.Snapshot = nil
		}
		return defect
	})
}

// stageNormalize degrades a target whose dumps did not parse. The
// failure counts against the target's breaker: a router emitting
// unparseable dumps is as unhealthy as one refusing logins.
//
//mantra:hotpath budget=1
func (c *Core) stageNormalize(it *engine.Item, now time.Time) {
	if err := it.ParseErr; err != nil {
		err = fmt.Errorf("collect %s: snapshot rejected: %w", it.Target.Name, err)
		c.Collector.RecordFailure(it.Target.Name, now, err)
		it.Res.Status = collect.StatusDegraded
		it.Res.Err = err
	}
}

// stageLog appends the cycle to the delta log and buffers its WAL
// frame; a failed target gets an explicit gap marker instead. The record
// Append returns is the cycle's only comparison of the route table with
// its predecessor, so the target's stability tracker is driven from it
// here rather than from the table.
//
//mantra:hotpath
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
	rec := c.logDelta(it.Snapshot)
	c.Engine.ObserveStability(it.Snapshot.Target, rec.At, rec.Routes.Upserted, rec.Routes.Removed)
}

// logDelta appends a snapshot to the delta log, buffers the record and
// returns it.
func (c *Core) logDelta(sn *tables.Snapshot) logger.CycleRecord {
	rec := c.Log.Append(sn)
	if c.Store != nil {
		c.frames = append(c.frames, frame{target: sn.Target, rec: rec, fullEntries: uint64(len(sn.Pairs) + len(sn.Routes))})
	}
	return rec
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
	c.Engine.SetLatest(AggregateTarget, agg)
	if c.Publish != nil {
		c.Publish(agg)
	}
	return &st
}

// HealthRow returns what both /health builders show for one target: the
// collector's ledger (an empty row carrying the name before the first
// collection) and the gap count — how many cycles produced no data for
// the target, from collection failures or a handoff's dark cycles.
func (c *Core) HealthRow(name string) (collect.TargetHealth, int) {
	h, _ := c.Collector.TargetHealth(name)
	h.Target = name
	gaps := 0
	if s := c.Proc.Series(name, process.MetricRoutes); s != nil {
		gaps = s.GapCount()
	}
	return h, gaps
}
