package cycle

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/logger"
	"repro/internal/core/process"
	"repro/internal/core/tables"
)

// Checkpoint is a core's per-target state export: the form a shard
// handoff moves targets through in memory, and the form a crash
// checkpoint persists beside the delta log. AsOf records, per target,
// the last cycle stamp the exported state accounts for — later recorded
// cycles are the target's blind window.
//
// A worker takes one after every cycle and it is read only when the
// worker dies, so it carries only what the rest of it does not
// determine, at a cost independent of table size and history length:
// Logs is a view of the append-only delta log, Latest a pointer. The
// route-stability tracker and the processor's previous route table are
// derived at import — from Logs' records and from Latest's table.
//
// A crash checkpoint leaves Logs and Latest out, the store's own
// checkpoint of the delta log determining both, and sets Ring: the
// recovered processor keeps its anomaly IDs, where a handoff re-keys
// them into the receiver's ring.
type Checkpoint struct {
	AsOf   map[string]time.Time
	Proc   map[string]*process.TargetState
	Logs   map[string]logger.TargetState
	Health map[string]collect.TargetHealth
	Latest map[string]*tables.Snapshot
	Ring   process.Ring
}

// NewCheckpoint returns an empty checkpoint.
func NewCheckpoint() *Checkpoint {
	return &Checkpoint{
		AsOf:   make(map[string]time.Time),
		Proc:   make(map[string]*process.TargetState),
		Logs:   make(map[string]logger.TargetState),
		Health: make(map[string]collect.TargetHealth),
		Latest: make(map[string]*tables.Snapshot),
	}
}

// Merge splices one target's entries from another checkpoint in —
// used when a live import lands on a core whose own checkpoint
// predates the new target.
func (ck *Checkpoint) Merge(name string, one *Checkpoint) {
	ck.AsOf[name] = one.AsOf[name]
	splice(ck.Proc, one.Proc, name)
	splice(ck.Logs, one.Logs, name)
	splice(ck.Health, one.Health, name)
	splice(ck.Latest, one.Latest, name)
}

// splice copies src's entry for name over dst's, or deletes dst's when
// src has none.
func splice[V any](dst, src map[string]V, name string) {
	if v, ok := src[name]; ok {
		dst[name] = v
	} else {
		delete(dst, name)
	}
}

// Export captures the core's per-target state for the given targets,
// all current as of the cycle stamped at.
func (c *Core) Export(at time.Time, targets []collect.Target) *Checkpoint {
	ck := NewCheckpoint()
	for _, t := range targets {
		name := t.Name
		ck.AsOf[name] = at
		if st := c.Proc.ExportTarget(name); st != nil {
			ck.Proc[name] = st
		}
		if ts, ok := c.Log.ExportTarget(name); ok {
			ck.Logs[name] = ts
		}
		if h, ok := c.Collector.TargetHealth(name); ok {
			ck.Health[name] = h
		}
		if sn := c.Engine.Latest(name); sn != nil {
			ck.Latest[name] = sn
		}
	}
	return ck
}

// ImportTarget splices one target's checkpointed state into this core —
// the receiving side of a handoff. now anchors the restored breaker's
// cooldown. The import is O(history): the logger replays every record to
// rebuild its materialised tables, and the stability tracker is rebuilt
// from the same records.
func (c *Core) ImportTarget(name string, ck *Checkpoint, now time.Time) {
	c.Proc.ImportTarget(name, ck.Proc[name], ck.Latest[name])
	ts, ok := ck.Logs[name]
	if ok {
		c.Log.ImportTarget(name, ts)
	}
	c.restoreTarget(name, ts.Records, ck, now)
	c.Engine.SetLatest(name, ck.Latest[name])
}

// restoreTarget installs what a handoff and a recovery derive the same
// way: the stability tracker, rebuilt from the target's delta-log
// records, and the breaker and health row, whose cooldown restarts at
// now.
func (c *Core) restoreTarget(name string, recs []logger.CycleRecord, ck *Checkpoint, now time.Time) {
	c.Engine.SetStability(name, stabilityFromRecords(recs))
	c.Collector.ResetTarget(name)
	if h, ok := ck.Health[name]; ok {
		c.Collector.RestoreHealth(h, now)
	}
}

// RemoveTarget drops a target's state after it moved elsewhere, its
// delta log included: the new owner imported the history, and a copy
// left here would be one more for every handoff and failback.
func (c *Core) RemoveTarget(name string) {
	c.Proc.ImportTarget(name, nil, nil)
	c.Log.Remove(name)
	c.Engine.SetStability(name, nil)
	c.Engine.SetLatest(name, nil)
	c.Collector.ResetTarget(name)
}

// stabilityFromRecords rebuilds a target's route-stability tracker from
// its delta-log records: the exporter's Log stage fed its tracker each
// record's route delta as it appended it, so feeding a fresh tracker
// the same deltas yields the one the exporter held. No records means no
// successful cycle, and no tracker.
func stabilityFromRecords(recs []logger.CycleRecord) *process.RouteStability {
	if len(recs) == 0 {
		return nil
	}
	rs := process.NewRouteStability()
	for i := range recs {
		rs.ObserveDelta(recs[i].At, recs[i].Routes.Upserted, recs[i].Routes.Removed)
	}
	return rs
}

// WriteCheckpoint checkpoints the core into its store as of the cycle
// stamped at: the store's checkpoint of the delta log, and beside it
// the Checkpoint of every target the log knows — every stage that gives
// a target state logs it, so those are all of them, removed targets and
// the aggregate included.
func (c *Core) WriteCheckpoint(at time.Time) error {
	names := c.Log.Targets()
	targets := make([]collect.Target, len(names))
	for i, name := range names {
		targets[i].Name = name
	}
	ck := c.Export(at, targets)
	ck.Logs, ck.Latest = nil, nil
	ck.Ring = c.Proc.Ring()
	return c.Store.WriteCheckpoint(c.Log, appendCheckpoint(nil, ck), at)
}

// RecoveryReport summarizes what a recovery restored.
type RecoveryReport struct {
	// Resumed is false for a fresh (empty) archive.
	Resumed bool `json:"resumed"`
	// CheckpointAt is the instant of the checkpoint recovery started from
	// (zero when recovery replayed the WAL from its beginning).
	CheckpointAt time.Time `json:"checkpoint_at"`
	// CyclesReplayed and GapsReplayed count the WAL-tail events re-applied
	// on top of the checkpoint.
	CyclesReplayed int `json:"cycles_replayed"`
	GapsReplayed   int `json:"gaps_replayed"`
	// Targets is every target with restored history.
	Targets []string `json:"targets"`
	// Stats is the store's open-time scan outcome: torn-tail repair,
	// corrupt checkpoints skipped, records replayed.
	Stats logger.RecoveryStats `json:"stats"`
}

// Recover rebuilds a fresh core from the archive store holds: the
// newest checkpoint, imported target by target as a handoff imports,
// then the WAL tail past it replayed through the processor and the
// breakers as the live cycles ran it. The core's own configuration
// applies to what it restores.
func (c *Core) Recover(store *logger.Store) (*RecoveryReport, error) {
	ra := store.Recover()
	ck := NewCheckpoint()
	if len(ra.Extra) > 0 {
		var err error
		if ck, err = decodeCheckpoint(ra.Extra); err != nil {
			return nil, fmt.Errorf("cycle: checkpoint: %w", err)
		}
	}
	c.Log = ra.Logger
	rep := &RecoveryReport{Resumed: true, CheckpointAt: ra.CheckpointAt, Stats: ra.Stats, Targets: c.Log.Targets()}

	// now approximates the restart instant for breaker cooldowns: the
	// newest instant the archive knows about, which keeps recovery
	// correct under simulated clocks where the wall clock is meaningless.
	now := ra.CheckpointAt
	tail := make(map[string]int) // delta records past the checkpoint
	for _, ev := range ra.Events {
		if ev.At.After(now) {
			now = ev.At
		}
		if !ev.Gap {
			tail[ev.Target]++
		}
	}
	// A target's churn baseline is its table at the checkpoint: the
	// record before its first tail record.
	latest := make(map[string]*tables.Snapshot, len(ck.Proc))
	for name := range ck.Proc {
		if i := c.Log.Cycles(name) - tail[name] - 1; i >= 0 {
			routes, _ := c.Log.ReconstructRoutes(name, i)
			latest[name] = &tables.Snapshot{Target: name, Routes: routes}
		}
	}
	c.Proc.Restore(ck.Ring, ck.Proc, latest)
	for _, name := range rep.Targets {
		// The aggregate view is synthetic: the live path gives it no
		// stability tracker or health row, so neither does recovery.
		var recs []logger.CycleRecord
		if name != AggregateTarget {
			ts, _ := c.Log.ExportTarget(name)
			recs = ts.Records
		}
		c.restoreTarget(name, recs, ck, now)
	}

	for _, ev := range ra.Events {
		if ev.Gap {
			rep.GapsReplayed++
			c.Proc.MarkGap(ev.Target, ev.At)
			switch {
			case ev.Target == AggregateTarget:
			case strings.Contains(ev.Reason, collect.ErrBreakerOpen.Error()):
				// A breaker-open skip is not a fresh failure; replaying it
				// as one would inflate the failure counters past what the
				// monitor showed before the crash.
				c.Collector.RecordSkipped(ev.Target, ev.At)
			default:
				c.Collector.Track(ev.Target)
				c.Collector.RecordFailure(ev.Target, ev.At, errors.New(ev.Reason))
			}
			continue
		}
		rep.CyclesReplayed++
		c.Proc.IngestCounts(ev.Snapshot, ev.SACache, ev.MBGPRoutes)
		if ev.Target != AggregateTarget {
			c.Collector.RecordSuccess(ev.Target, ev.At)
		}
	}
	for _, name := range rep.Targets {
		if sn, ok := c.Log.Materialized(name); ok {
			c.Engine.SetLatest(name, sn)
		}
	}
	return rep, nil
}
