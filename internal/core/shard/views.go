// Fan-in views: after every cycle the supervisor rebuilds the merged
// fleet snapshot, the fleet anomaly log, the per-target health rows and
// the /shards status, and publishes them under the view mutex for HTTP
// readers. All four are deterministic functions of the per-shard state
// and the assignment map — gathered in registration or sorted order,
// never in map-iteration order — which is what keeps the fleet output
// byte-identical across shard counts.
package shard

import (
	"sort"

	"repro/internal/core/collect"
	"repro/internal/core/engine"
	"repro/internal/core/process"
	"repro/internal/core/tables"
	"repro/internal/core/tsdb"
)

// publish recomputes and swaps in the reader-facing views. Driver
// goroutine only; the workers are idle when it runs.
func (s *Supervisor) publish(merged *tables.Snapshot) {
	st := s.buildStatus()
	anoms := s.fleetAnomalies()
	health := s.fleetHealth()
	engines := make([]*engine.Engine, len(s.workers))
	procs := make([]*process.Processor, len(s.workers))
	for i, w := range s.workers {
		engines[i], procs[i] = w.core.Engine, w.core.Proc
	}

	s.mu.Lock()
	s.engines, s.procs = engines, procs
	s.status = st
	if merged != nil {
		s.lastMerged = merged
	}
	s.lastAnoms = anoms
	s.lastHealth = health
	s.mu.Unlock()
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
			row.LastBeat = w.beatAt()
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
func (s *Supervisor) Status() FleetStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status
}

// Merged returns the last merged fleet snapshot, nil before the first
// successful cycle. Safe from any goroutine.
func (s *Supervisor) Merged() *tables.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastMerged
}

// FleetAnomalies returns the last published fleet anomaly log. Safe
// from any goroutine.
func (s *Supervisor) FleetAnomalies() []process.Anomaly {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastAnoms
}

// FleetHealth returns the last published per-target health rows. Safe
// from any goroutine.
func (s *Supervisor) FleetHealth() []TargetHealthView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastHealth
}

// EngineStats returns each shard's cumulative engine instrumentation,
// entry i for shard i (a dead shard's entry stops advancing until its
// restart replaces the engine) — the /stats view under -shards. The
// engines are the ones published after the last cycle; each is read at
// call time under its own mutex, so this is safe from any goroutine,
// including while a cycle is in flight, and costs the cycle nothing.
func (s *Supervisor) EngineStats() []engine.Stats {
	s.mu.Lock()
	engines := s.engines
	s.mu.Unlock()
	out := make([]engine.Stats, len(engines))
	for i, e := range engines {
		out[i] = e.Stats()
	}
	return out
}

// FleetProc exposes the fleet-level processor (merged series, no
// detectors). Driver goroutine only.
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

// SeriesView resolves a target's series through the last *published*
// assignment and shard processors, for HTTP readers: the live assign
// map and worker slice may be mid-rewrite during a handoff or a
// restart, but the published copies are mu-guarded and only swap
// between cycles. The series itself is read under the owning store's
// lock, so this is safe from any goroutine, mid-cycle included.
func (s *Supervisor) SeriesView(name string, m process.Metric) *process.Series {
	s.mu.Lock()
	sh, ok := s.status.Assignment[name]
	procs := s.procs
	s.mu.Unlock()
	if !ok || sh < 0 || sh >= len(procs) {
		// Not a shard-owned target: the fleet-level series ("fleet")
		// live in the aggregation processor.
		return s.fleetProc.Series(name, m)
	}
	return procs[sh].Series(name, m)
}

// QueryFleet executes a store query across the fleet: each target is
// answered by its owning shard's long-horizon store (the fleet-level
// synthetic targets by the aggregation processor's), and the per-target
// rows are merged with tsdb.Assemble — the same split execution a
// single store uses internally, so the result bytes are identical at
// any shard count. Resolution goes through the last *published*
// assignment and shard processors like SeriesView, and each store is
// read under its own lock, so this is safe from any goroutine.
func (s *Supervisor) QueryFleet(q tsdb.Query) (tsdb.Result, error) {
	// The published assignment map and processor slice are rebuilt
	// wholesale each publish and never mutated afterwards, so holding
	// the references past the unlock is safe.
	s.mu.Lock()
	assign, procs := s.status.Assignment, s.procs
	s.mu.Unlock()

	names := q.Targets
	if len(names) == 0 {
		seen := make(map[string]bool)
		for name := range assign {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
		for _, name := range s.fleetProc.Store().Targets() {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
		sort.Strings(names)
	}

	parts := make([]tsdb.TargetResult, 0, len(names))
	for _, name := range names {
		store := s.fleetProc.Store()
		if sh, ok := assign[name]; ok && sh >= 0 && sh < len(procs) {
			store = procs[sh].Store()
		}
		tr, err := store.QueryTarget(q, name)
		if err != nil {
			return tsdb.Result{}, err
		}
		parts = append(parts, tr)
	}
	return tsdb.Assemble(q, parts), nil
}
