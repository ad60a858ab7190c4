package mantra

import (
	"errors"
	"slices"

	"repro/internal/core/collect"
	"repro/internal/core/process"
)

// ErrAllTargetsFailed reports a cycle in which no target produced a
// snapshot — the only condition under which a cycle returns an error.
// Individual target failures degrade the cycle instead of aborting it.
var ErrAllTargetsFailed = errors.New("all targets failed to collect")

// CollectResult is one target's outcome within a monitoring cycle.
type CollectResult struct {
	Target string
	// Status is ok / retried / degraded / breaker-open.
	Status collect.Status
	// Attempts is how many collection attempts were made (0 when the
	// breaker skipped the target).
	Attempts int
	// Err is the failure when the target did not produce a snapshot.
	Err error
	// Stats holds the cycle statistics on success, nil otherwise.
	Stats *CycleStats
}

// TargetHealth is the per-target collection health view; see
// collect.TargetHealth for the fields.
type TargetHealth = collect.TargetHealth

// SetCollectPolicy replaces the resilience policy — retries, backoff,
// breaker thresholds, validation — governing all collection. The
// per-target health ledger and breaker positions carry over into the
// new policy (new thresholds and cooldowns apply from the next
// transition), so a mid-run policy change no longer silently discards
// accumulated failure history. Use ResetCollectState for a deliberate
// wipe.
func (m *Monitor) SetCollectPolicy(p collect.Policy) {
	m.core.Collector.SetPolicy(p)
}

// ResetCollectState wipes the per-target breakers and health ledger
// while keeping the current policy — the old SetCollectPolicy behavior,
// now opt-in.
func (m *Monitor) ResetCollectState() {
	m.core.Collector = collect.NewCollector(m.core.Collector.Policy())
	m.publish()
}

// TargetHealthView is one /health target row: the collector's ledger —
// including the last successful cycle timestamp — plus the gap count,
// how many cycles produced no data for the target. Together they make
// blind windows first-class: an operator reads when the target last
// yielded data and how many cycles are explicitly missing, whether
// from collection failures or a shard handoff's dark cycles.
type TargetHealthView struct {
	TargetHealth
	GapCount int `json:"gap_count"`
}

// HealthView is the combined health object served over HTTP at /health:
// per-target collection health plus the anomaly rollup.
type HealthView struct {
	Targets   []TargetHealthView `json:"targets"`
	Anomalies AnomalyRollup      `json:"anomalies"`
}

// HealthView returns the combined health object served at /health, as
// last published.
func (m *Monitor) HealthView() HealthView {
	hv := m.published.Load().health
	hv.Targets = slices.Clone(hv.Targets)
	return hv
}

// buildHealth builds the health view of the registered targets, its
// anomaly rollup from pv.
func (m *Monitor) buildHealth(pv *process.View) HealthView {
	rows := make([]TargetHealthView, 0, len(m.targets))
	for _, t := range m.targets {
		h, gaps := m.core.HealthRow(t.Name)
		rows = append(rows, TargetHealthView{TargetHealth: h, GapCount: gaps})
	}
	return HealthView{Targets: rows, Anomalies: pv.Rollup()}
}

// Health returns every registered target's collection health, in
// registration order, including targets not yet collected.
func (m *Monitor) Health() []TargetHealth {
	out := make([]TargetHealth, 0, len(m.targets))
	for _, t := range m.targets {
		h, _ := m.core.Collector.TargetHealth(t.Name)
		out = append(out, h)
	}
	return out
}

// LastResults returns the per-target outcomes of the most recent cycle,
// in registration order, or nil before the first cycle.
func (m *Monitor) LastResults() []CollectResult {
	return append([]CollectResult(nil), m.lastResults...)
}
