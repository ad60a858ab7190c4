package cycle

import (
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/logger"
	"repro/internal/core/process"
	"repro/internal/core/tables"
)

// Checkpoint is a core's per-target state export, the in-memory form a
// shard handoff moves targets through. AsOf records, per target, the
// last cycle stamp the exported state accounts for — later recorded
// cycles are the target's blind window.
//
// A worker takes one after every cycle and it is read only when the
// worker dies, so it carries only what the rest of it does not
// determine, at a cost independent of table size and history length:
// Logs is a view of the append-only delta log, Latest a pointer. The
// route-stability tracker and the processor's previous route table are
// derived at import — from Logs' records and from Latest's table.
type Checkpoint struct {
	AsOf   map[string]time.Time
	Proc   map[string]*process.TargetState
	Logs   map[string]logger.TargetState
	Health map[string]collect.TargetHealth
	Latest map[string]*tables.Snapshot
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
	c.Engine.SetStability(name, stabilityFromRecords(ts.Records))
	c.Collector.ResetTarget(name)
	if h, ok := ck.Health[name]; ok {
		c.Collector.RestoreHealth(h, now)
	}
	c.Engine.SetLatest(name, ck.Latest[name])
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
