package engine

import "time"

// Stage identifies one pipeline stage in instrumentation output.
type Stage string

// The pipeline stages, in flow order. Collect and Normalize run on the
// worker pool; Log, Ingest and Publish run serially in registration
// order; Aggregate runs once per cycle.
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
	start := time.Now()                                      //mantralint:allow wallclock the documented live-clock seam; everything downstream consumes the injected Clock
	return func() time.Duration { return time.Since(start) } //mantralint:allow wallclock same seam: monotonic delta from the anchor above
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
	CollectNs   int64 `json:"collect_ns"`
	NormalizeNs int64 `json:"normalize_ns"`
	WaitNs      int64 `json:"wait_ns"`
	LogNs       int64 `json:"log_ns"`
	IngestNs    int64 `json:"ingest_ns"`
	PublishNs   int64 `json:"publish_ns"`
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

func (r *CycleReport) observe(stage Stage, d time.Duration) {
	stat := r.Stages[stage]
	stat.observe(d)
	r.Stages[stage] = stat
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

// Stats snapshots the engine's cumulative instrumentation. Safe to call
// while a cycle runs; per-target entries are ordered by last seen
// registration index, then name.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := Stats{
		Cycles:      e.cycles,
		Concurrency: e.conc,
		Stages:      make(map[Stage]StageStat, len(e.totals)),
		LastCycle:   e.last,
	}
	for stage, stat := range e.totals {
		out.Stages[stage] = *stat
	}
	for _, st := range e.states {
		if st.cycles == 0 {
			// State created by SetLatest/ImportStability only (e.g. the
			// aggregate target or recovered history) has no cycle
			// instrumentation to report.
			continue
		}
		ts := TargetStats{
			Target:    st.name,
			Cycles:    st.cycles,
			Successes: st.successes,
			Gaps:      st.gaps,
			LastSeq:   st.lastSeq,
			Stages:    make(map[Stage]StageStat, len(st.stages)),
		}
		for stage, stat := range st.stages {
			ts.Stages[stage] = *stat
		}
		out.Targets = append(out.Targets, ts)
	}
	sortTargetStats(out.Targets)
	return out
}

// LastReport returns the most recent cycle's instrumentation, or nil
// before the first cycle.
func (e *Engine) LastReport() *CycleReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}

// Cycles returns how many cycles the engine has run.
func (e *Engine) Cycles() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cycles
}

func sortTargetStats(ts []TargetStats) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && lessTargetStats(ts[j], ts[j-1]); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func lessTargetStats(a, b TargetStats) bool {
	if a.LastSeq != b.LastSeq {
		return a.LastSeq < b.LastSeq
	}
	return a.Target < b.Target
}
