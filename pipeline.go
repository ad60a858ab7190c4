package mantra

import (
	"fmt"
	"time"

	"repro/internal/core/engine"
)

// DefaultConcurrencyCap bounds the default collection fan-out of
// RunCycleConcurrent: min(DefaultConcurrencyCap, number of targets)
// workers, overridable with SetConcurrency.
const DefaultConcurrencyCap = 8

// runEngine drives one cycle through the core on a pool of conc
// workers, commits its WAL frames, and adapts the items to the monitor's
// result types. The cycle errs (ErrAllTargetsFailed) only when every
// target failed.
func (m *Monitor) runEngine(now time.Time, conc int) ([]CycleStats, error) {
	m.core.Commands = m.Commands
	items, aggStats, _ := m.core.Run(now, m.targets, engine.Options{Concurrency: conc, Aggregate: m.aggregate})
	// An archive failure degrades that record to in-memory only, never
	// the cycle; it is surfaced through ArchiveStatus.
	if err := m.core.Commit(); err != nil {
		m.archive.lastAppendErr = err.Error()
	}
	var out []CycleStats
	results := make([]CollectResult, 0, len(items))
	failed := 0
	for _, it := range items {
		cr := CollectResult{
			Target:   it.Res.Target,
			Status:   it.Res.Status,
			Attempts: it.Res.Attempts,
			Err:      it.Res.Err,
		}
		if it.Stats != nil {
			cr.Stats = it.Stats
			out = append(out, *it.Stats)
		} else {
			failed++
		}
		results = append(results, cr)
	}
	if aggStats != nil {
		out = append(out, *aggStats)
	}
	m.archiveAfterCycle(now)
	m.lastResults = results
	if len(items) > 0 && failed == len(items) {
		return out, fmt.Errorf("mantra: %w", ErrAllTargetsFailed)
	}
	return out, nil
}

// SetConcurrency bounds the collection worker pool RunCycleConcurrent
// fans out on. Values below 1 restore the default
// min(DefaultConcurrencyCap, number of targets).
func (m *Monitor) SetConcurrency(n int) { m.concurrency = n }

// Concurrency returns the effective collection fan-out for the current
// target set.
func (m *Monitor) Concurrency() int {
	if m.concurrency > 0 {
		return m.concurrency
	}
	n := len(m.targets)
	if n > DefaultConcurrencyCap {
		n = DefaultConcurrencyCap
	}
	if n < 1 {
		n = 1
	}
	return n
}

// EngineStats returns the cycle engine's cumulative per-stage,
// per-target instrumentation — the view served over HTTP at /stats.
func (m *Monitor) EngineStats() engine.Stats { return m.core.Engine.Stats() }

// LastCycleReport returns the most recent cycle's per-stage timings and
// queue-depth counters, or nil before the first cycle.
func (m *Monitor) LastCycleReport() *engine.CycleReport { return m.core.Engine.LastReport() }
