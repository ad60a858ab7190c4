// Fan-in views: after every cycle the supervisor rebuilds the merged
// fleet snapshot, the fleet anomaly log, the per-target health rows and
// the /shards status, takes a view of every shard's processor and of
// the fleet processor and a snapshot of every shard's engine counters,
// and publishes them together as one immutable fleetView behind an
// atomic pointer. Every reader loads that pointer
// once and takes no lock, so a read made mid-cycle is the read made
// after the previous cycle. The views are deterministic functions of
// the per-shard state and the assignment map — gathered in registration
// or sorted order, never in map-iteration order — which is what keeps
// the fleet output byte-identical across shard counts.
package shard

import (
	"slices"
	"sort"

	"repro/internal/core/collect"
	"repro/internal/core/engine"
	"repro/internal/core/process"
	"repro/internal/core/tables"
	"repro/internal/core/tsdb"
)

// fleetView is one published fleet cycle.
type fleetView struct {
	status FleetStatus
	// merged is the last merged fleet snapshot, nil before the first
	// successful cycle.
	merged *tables.Snapshot
	anoms  []process.Anomaly
	health []TargetHealthView
	// shards holds each shard processor's view, entry i for shard i;
	// fleet the fleet processor's.
	shards []*process.View
	fleet  *process.View
	// stats holds each shard engine's counters, entry i for shard i.
	stats []engine.Stats
}

// publish recomputes the reader-facing views and swaps them in as one.
// Driver goroutine only; the workers are idle when it runs. A nil
// merged keeps the previous cycle's.
func (s *Supervisor) publish(merged *tables.Snapshot) {
	v := &fleetView{
		status: s.buildStatus(),
		merged: merged,
		anoms:  s.fleetAnomalies(),
		health: s.fleetHealth(),
		shards: make([]*process.View, len(s.workers)),
		fleet:  s.fleetProc.Publish(),
		stats:  make([]engine.Stats, len(s.workers)),
	}
	if merged == nil {
		v.merged = s.view.Load().merged
	}
	for i, w := range s.workers {
		v.stats[i], v.shards[i] = w.core.Engine.Stats(), w.core.Proc.Publish()
	}
	s.view.Store(v)
}

// procFor returns the processor view that answers for a target: its
// owning shard's under the published assignment, or the fleet
// processor's for the fleet-level series ("fleet").
func (v *fleetView) procFor(name string) *process.View {
	if sh, ok := v.status.Assignment[name]; ok && sh >= 0 && sh < len(v.shards) {
		return v.shards[sh]
	}
	return v.fleet
}

// targets lists, sorted, every target the view serves series for: the
// fleet-level ones and the assigned ones.
func (v *fleetView) targets() []string {
	names := v.fleet.Targets()
	for name := range v.status.Assignment {
		if !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func (s *Supervisor) buildStatus() FleetStatus {
	st := FleetStatus{
		Assignment:       make(map[string]int, len(s.assign)),
		Handoffs:         s.handoffs,
		TargetsMoved:     s.moved,
		HeartbeatTimeout: s.cfg.HeartbeatTimeout,
		Cycle:            s.cycle,
	}
	for name, sh := range s.assign {
		st.Assignment[name] = sh
	}
	for i, w := range s.workers {
		row := ShardStatus{Index: i}
		if w != nil {
			row.Alive = w.alive
			row.Generation = w.gen
			row.Restarts = w.restarts
			row.Cycles = w.cycles
			row.LastBeat = w.lastBeat
			row.DeadSince = w.deadAt
			row.RestartAt = w.restartAt
		}
		for _, t := range s.targets {
			if sh, ok := s.assign[t.Name]; ok && sh == i {
				row.Targets = append(row.Targets, t.Name)
			}
		}
		sort.Strings(row.Targets)
		st.Shards = append(st.Shards, row)
	}
	return st
}

// fleetAnomalies merges the per-shard anomaly logs into one fleet log.
// Each target's episodes are read from its owning shard only — after a
// handoff the moved copies live there, re-keyed. The episode rings are
// append-only, so a target that bounced away and back leaves its owner
// holding both the original copies and the re-imported ones; the
// (target, kind, open-time) key is unique per episode, and the highest
// local ID — the most recent import — carries the current resolution
// state. The deduped log is sorted by (At, Target, Kind) and re-keyed
// with fleet-level IDs, making it independent of shard count, gather
// order and handoff history.
func (s *Supervisor) fleetAnomalies() []process.Anomaly {
	type key struct {
		target, kind string
		at           int64
	}
	best := make(map[key]process.Anomaly)
	for i, w := range s.workers {
		if w == nil {
			continue
		}
		owned := make(map[string]bool)
		for name, sh := range s.assign {
			if sh == i {
				owned[name] = true
			}
		}
		if len(owned) == 0 {
			continue
		}
		for _, an := range w.core.Proc.Anomalies() {
			if !owned[an.Target] {
				continue
			}
			k := key{target: an.Target, kind: an.Kind, at: an.At.UnixNano()}
			if prev, ok := best[k]; !ok || an.ID > prev.ID {
				best[k] = an
			}
		}
	}
	out := make([]process.Anomaly, 0, len(best))
	for _, an := range best {
		out = append(out, an)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].At.Equal(out[j].At) {
			return out[i].At.Before(out[j].At)
		}
		if out[i].Target != out[j].Target {
			return out[i].Target < out[j].Target
		}
		return out[i].Kind < out[j].Kind
	})
	for i := range out {
		out[i].ID = i + 1
	}
	return out
}

// fleetHealth builds the per-target health rows in registration order:
// the owning shard's collection ledger plus the gap count, so handoff
// blind windows and breaker state are visible in one place.
func (s *Supervisor) fleetHealth() []TargetHealthView {
	out := make([]TargetHealthView, 0, len(s.targets))
	for _, t := range s.targets {
		row := TargetHealthView{
			TargetHealth: collect.TargetHealth{Target: t.Name},
			Shard:        -1,
		}
		if sh, ok := s.assign[t.Name]; ok {
			row.Shard = sh
			row.TargetHealth, row.GapCount = s.workers[sh].core.HealthRow(t.Name)
		}
		out = append(out, row)
	}
	return out
}

// Status returns the last published /shards view. Safe from any
// goroutine.
func (s *Supervisor) Status() FleetStatus { return s.view.Load().status }

// Merged returns the last merged fleet snapshot, nil before the first
// successful cycle. Safe from any goroutine.
func (s *Supervisor) Merged() *tables.Snapshot { return s.view.Load().merged }

// FleetAnomalies returns the last published fleet anomaly log. Safe
// from any goroutine.
func (s *Supervisor) FleetAnomalies() []process.Anomaly { return s.view.Load().anoms }

// FleetHealth returns the last published per-target health rows. Safe
// from any goroutine.
func (s *Supervisor) FleetHealth() []TargetHealthView { return s.view.Load().health }

// EngineStats returns each shard's cumulative engine instrumentation as
// the last published cycle left it, entry i for shard i (a dead shard's
// entry stops advancing until its restart replaces the engine) — the
// /stats view under -shards. Safe from any goroutine.
func (s *Supervisor) EngineStats() []engine.Stats { return s.view.Load().stats }

// FleetProc exposes the fleet-level processor (merged series, no
// detectors). Driver goroutine only, but for its View.
func (s *Supervisor) FleetProc() *process.Processor { return s.fleetProc }

// TargetSeries reads a target's metric series from its owning shard,
// nil when the target is unassigned or unseen. Driver goroutine only:
// it reads the live assignment; SeriesView is the reader-safe form.
func (s *Supervisor) TargetSeries(name string, m process.Metric) *process.Series {
	sh, ok := s.assign[name]
	if !ok {
		return nil
	}
	return s.workers[sh].core.Proc.Series(name, m)
}

// SeriesView reads a target's series as the last published cycle left
// it: from the owning shard's processor view under the published
// assignment, or the fleet processor's for the fleet-level series. It
// loads the published fleet view once and takes no lock, so it is safe
// from any goroutine, and a read mid-cycle — mid-handoff included —
// answers as a read after the previous cycle did.
func (s *Supervisor) SeriesView(name string, m process.Metric) *process.Series {
	return s.view.Load().procFor(name).Series(name, m)
}

// SeriesTargets lists, sorted, every target the last published cycle
// serves series for: QueryFleet's default set, and the / index under
// -shards. Safe from any goroutine.
func (s *Supervisor) SeriesTargets() []string { return s.view.Load().targets() }

// QueryFleet executes a store query across the fleet as the last
// published cycle left it: each target is answered by its owning
// shard's store view (the fleet-level synthetic targets by the
// aggregation processor's), and the per-target rows are merged with
// tsdb.Assemble — the same split execution a single store uses
// internally, so the result bytes are identical at any shard count. It
// reads one published fleet view and takes no lock, so it is safe from
// any goroutine.
func (s *Supervisor) QueryFleet(q tsdb.Query) (tsdb.Result, error) {
	v := s.view.Load()
	names := q.Targets
	if len(names) == 0 {
		names = v.targets()
	}

	parts := make([]tsdb.TargetResult, 0, len(names))
	for _, name := range names {
		tr, err := v.procFor(name).Store().QueryTarget(q, name)
		if err != nil {
			return tsdb.Result{}, err
		}
		parts = append(parts, tr)
	}
	return tsdb.Assemble(q, parts), nil
}
