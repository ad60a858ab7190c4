package mantra

import (
	"time"

	"repro/internal/core/cycle"
	"repro/internal/core/tables"
)

// AggregateTarget is the synthetic target name under which combined
// results are published when aggregation is enabled.
const AggregateTarget = cycle.AggregateTarget

// EnableAggregation turns on the enhancement the paper's conclusion
// announces as work in progress: collecting from multiple routers
// concurrently and generating combined results in real time. Each cycle,
// the per-router snapshots are merged into a global view published under
// the AggregateTarget name: sessions and participants are deduplicated
// across collection points (a pair seen at several routers is one pair),
// and routes are merged on best metric.
func (m *Monitor) EnableAggregation() {
	m.aggregate = true
}

// RunCycleConcurrent is RunCycle with pipelined parallel collection:
// targets are dialed and dumped on a bounded worker pool (Concurrency
// workers, default min(8, targets) — no longer a goroutine per target),
// and a sequence-numbered reorder buffer hands finished targets to
// processing in registration order, so results stay deterministic and
// identical to the serial path while a slow router no longer stalls the
// processing of the healthy ones. Failing targets degrade the cycle
// exactly as in RunCycle — skipped, recorded, gap-marked — they never
// abort it. With aggregation enabled, the merged view over the targets
// that succeeded is processed last.
func (m *Monitor) RunCycleConcurrent(now time.Time) ([]CycleStats, error) {
	return m.runEngine(now, m.Concurrency())
}

// MergeSnapshots combines several routers' cycle snapshots into one
// aggregate view: pairs deduplicated on (source, group) with field-wise
// maxima, routes on best metric, and — when the same target appears more
// than once, as in a shard-handoff race — only that target's newest
// snapshot participating. The merge is order-independent; see
// tables.MergeSnapshots for the full contract.
//
// This is the "aggregate views from multiple collection points" the
// paper's conclusion calls for once sparse mode made any single vantage
// incomplete. The implementation lives in the tables package so the
// shard supervisor's fan-in tier can share it without importing the
// Monitor.
func MergeSnapshots(name string, at time.Time, snaps ...*tables.Snapshot) *tables.Snapshot {
	return tables.MergeSnapshots(name, at, snaps...)
}
