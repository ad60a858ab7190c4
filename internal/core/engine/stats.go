package engine

import (
	"cmp"
	"maps"
	"slices"
	"time"
)

// Stage identifies one pipeline stage in instrumentation output.
type Stage string

// The pipeline stages, in flow order. Collect runs on the worker pool;
// Log, Ingest and Publish run serially in registration order; Aggregate
// runs once per cycle. StageNormalize is never observed: a dump is
// scanned into tables as Collect reads it, and a dump that did not
// parse fails Collect. The name stays, with its place in
// OrderedStages, for the benchmark harness that reports every stage.
const (
	StageCollect   Stage = "collect"
	StageNormalize Stage = "normalize"
	StageLog       Stage = "log"
	StageIngest    Stage = "ingest"
	StagePublish   Stage = "publish"
	StageAggregate Stage = "aggregate"
)

// OrderedStages lists every stage in pipeline order for stable
// rendering.
var OrderedStages = []Stage{
	StageCollect, StageNormalize, StageLog, StageIngest, StagePublish, StageAggregate,
}

// Clock is the engine's monotonic cycle clock: a non-decreasing
// duration since an arbitrary origin. The engine never reads the wall
// clock itself — live deployments use NewMonotonicClock, simulations
// inject a virtual clock so instrumented timings are deterministic.
// A Clock must be safe for concurrent use.
type Clock func() time.Duration

// NewMonotonicClock returns a clock reading the process's monotonic
// time relative to its creation instant.
func NewMonotonicClock() Clock {
	start := time.Now()                                      // the documented live-clock seam; everything downstream consumes the injected Clock
	return func() time.Duration { return time.Since(start) } // same seam: monotonic delta from the anchor above
}

// StageStat aggregates a stage's observed executions.
type StageStat struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	MaxNs   int64 `json:"max_ns"`
}

func (s *StageStat) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.Count++
	ns := d.Nanoseconds()
	s.TotalNs += ns
	if ns > s.MaxNs {
		s.MaxNs = ns
	}
}

// observe adds one execution of stage to a stats map.
func observe(m map[Stage]StageStat, stage Stage, d time.Duration) {
	stat := m[stage]
	stat.observe(d)
	m[stage] = stat
}

func (s *StageStat) merge(o StageStat) {
	s.Count += o.Count
	s.TotalNs += o.TotalNs
	if o.MaxNs > s.MaxNs {
		s.MaxNs = o.MaxNs
	}
}

// Total returns the stat's accumulated duration.
func (s StageStat) Total() time.Duration { return time.Duration(s.TotalNs) }

// TargetCycle is one target's instrumented trip through one cycle.
type TargetCycle struct {
	Target string `json:"target"`
	Seq    int    `json:"seq"`
	Status string `json:"status"`
	// Per-stage durations; WaitNs is the time parked in the reorder
	// buffer behind earlier-registered targets.
	CollectNs int64 `json:"collect_ns"`
	WaitNs    int64 `json:"wait_ns"`
	LogNs     int64 `json:"log_ns"`
	IngestNs  int64 `json:"ingest_ns"`
	PublishNs int64 `json:"publish_ns"`
}

// CycleReport instruments one cycle end to end.
type CycleReport struct {
	// Cycle counts engine cycles from 1.
	Cycle int `json:"cycle"`
	// At is the cycle's logical timestamp (the now passed to Run).
	At          time.Time `json:"at"`
	Concurrency int       `json:"concurrency"`
	Targets     int       `json:"targets"`
	Failed      int       `json:"failed"`
	// WallNs is the cycle's span on the cycle clock.
	WallNs int64 `json:"wall_ns"`
	// MaxQueueDepth is the reorder buffer's high-water mark: how many
	// finished targets were parked behind a slower earlier one.
	MaxQueueDepth int                 `json:"max_queue_depth"`
	Stages        map[Stage]StageStat `json:"stages"`
	PerTarget     []TargetCycle       `json:"per_target"`
}

// StageTotal returns one stage's accumulated duration in the cycle.
func (r *CycleReport) StageTotal(stage Stage) time.Duration {
	return r.Stages[stage].Total()
}

// Wall returns the cycle's wall-clock span on the cycle clock.
func (r *CycleReport) Wall() time.Duration { return time.Duration(r.WallNs) }

// TargetStats is the cumulative per-target engine view.
type TargetStats struct {
	Target    string              `json:"target"`
	Cycles    int                 `json:"cycles"`
	Successes int                 `json:"successes"`
	Gaps      int                 `json:"gaps"`
	LastSeq   int                 `json:"last_seq"`
	Stages    map[Stage]StageStat `json:"stages"`
}

// Stats is the engine's operator view, served over HTTP at /stats.
type Stats struct {
	Cycles      int                 `json:"cycles"`
	Concurrency int                 `json:"concurrency"`
	Stages      map[Stage]StageStat `json:"stages"`
	Targets     []TargetStats       `json:"targets"`
	LastCycle   *CycleReport        `json:"last_cycle,omitempty"`
}

// Stats snapshots the engine's cumulative instrumentation, for its
// owner to publish: the snapshot shares nothing the engine later
// writes. Per-target entries are ordered by last seen registration
// index, then name.
func (e *Engine) Stats() Stats {
	out := Stats{
		Cycles:      e.cycles,
		Concurrency: e.conc,
		Stages:      maps.Clone(e.totals),
		LastCycle:   e.last,
	}
	for _, st := range e.states {
		out.Targets = append(out.Targets, TargetStats{
			Target:    st.name,
			Cycles:    st.cycles,
			Successes: st.successes,
			Gaps:      st.gaps,
			LastSeq:   st.lastSeq,
			Stages:    maps.Clone(st.stages),
		})
	}
	slices.SortFunc(out.Targets, func(a, b TargetStats) int {
		return cmp.Or(cmp.Compare(a.LastSeq, b.LastSeq), cmp.Compare(a.Target, b.Target))
	})
	return out
}
