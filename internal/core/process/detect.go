// Anomaly detection: the pluggable detector framework behind the
// paper's §V incident findings (the October 14 1998 unicast-injection
// event and its kin).
//
// A Detector watches one result series per target and describes an
// incident signature — a spike, a collapse, or a sustained run. The
// processor runs every registered detector after each ingest and keeps
// episode state per (target, kind): an anomaly opens when the signature
// first holds against a trailing baseline, stays open (LastSeen
// advancing) while the signature persists, and resolves when the value
// returns to the baseline *frozen at detection time*. Freezing matters:
// a long incident poisons its own trailing window, and comparing
// against the live window would resolve the episode while the incident
// still rages.
//
// Collection gaps never resolve an episode — detectors only run on real
// data, so a router that goes dark mid-incident keeps its anomaly open
// until evidence of recovery arrives. A long outage (GapResetCycles or
// more consecutive gaps) instead resets the baseline: the world may
// have legitimately changed while the monitor was blind, so the first
// post-outage cycle seeds a fresh window rather than firing against a
// stale one.
package process

import (
	"fmt"
	"time"

	"repro/internal/core/tsdb"
)

// Anomaly kinds raised by the default detector set.
const (
	KindRouteInjection = "route-injection"
	KindRPLoss         = "rp-loss"
	KindSAStorm        = "sa-storm"
	KindRouteLeak      = "route-leak"
	KindRouteFlap      = "route-flap"
)

// Anomaly severities.
const (
	SeverityWarning  = "warning"
	SeverityCritical = "critical"
)

// DefaultMaxAnomalies caps the in-memory anomaly ring; see
// Processor.MaxAnomalies.
const DefaultMaxAnomalies = 1024

// DefaultGapResetCycles is how many consecutive collection gaps stale a
// target's detection baseline; see Processor.GapResetCycles.
const DefaultGapResetCycles = 3

// Detector is one pluggable incident signature over a result series.
// Implementations must be deterministic pure functions of their inputs:
// detection order and anomaly content feed byte-compared outputs.
type Detector interface {
	// Kind names the anomalies this detector raises.
	Kind() string
	// Observes names the series the detector watches.
	Observes() Metric
	// Severity classifies raised anomalies (SeverityWarning/Critical).
	Severity() string
	// MinBase is the minimum number of baseline points (before the
	// current one) required before the detector may fire; at least 1 is
	// always enforced, so nothing fires on a target's first cycle.
	MinBase() int
	// Assess evaluates the newest value cur against the trailing
	// baseline window base (oldest first, current value excluded) and
	// reports whether the incident signature holds, with a human detail.
	Assess(cur float64, base []float64) (raise bool, detail string)
	// Cleared reports whether an open episode has subsided: cur is the
	// newest value, frozen the baseline mean captured when the episode
	// opened.
	Cleared(cur, frozen float64) bool
}

// SpikeDetector raises when a value jumps above its trailing mean by
// both a multiplicative factor and an absolute amount — the step-jump
// signature of route injections, SA storms and route leaks.
type SpikeDetector struct {
	KindName string
	Watch    Metric
	Sev      string
	// Factor and MinJump gate the jump: cur > mean*Factor and
	// cur-mean > MinJump, with mean > 0.
	Factor  float64
	MinJump float64
}

func (d *SpikeDetector) Kind() string     { return d.KindName }
func (d *SpikeDetector) Observes() Metric { return d.Watch }
func (d *SpikeDetector) Severity() string { return d.Sev }
func (d *SpikeDetector) MinBase() int     { return 1 }

func (d *SpikeDetector) Assess(cur float64, base []float64) (bool, string) {
	m := meanOf(base)
	if m > 0 && cur > m*d.Factor && cur-m > d.MinJump {
		return true, fmt.Sprintf("%s jumped to %.0f against trailing mean %.0f", d.Watch, cur, m)
	}
	return false, ""
}

func (d *SpikeDetector) Cleared(cur, frozen float64) bool {
	return !(cur > frozen*d.Factor && cur-frozen > d.MinJump)
}

// CollapseDetector raises when a value that had an established baseline
// collapses toward zero — the signature of a failed RP whose SA cache
// empties instantly.
type CollapseDetector struct {
	KindName string
	Watch    Metric
	Sev      string
	// MinLevel is the baseline mean required before a collapse is
	// meaningful; CollapseFrac the fraction of the mean at or below
	// which the value counts as collapsed; RecoverFrac the fraction of
	// the frozen baseline the value must regain to resolve.
	MinLevel     float64
	CollapseFrac float64
	RecoverFrac  float64
}

func (d *CollapseDetector) Kind() string     { return d.KindName }
func (d *CollapseDetector) Observes() Metric { return d.Watch }
func (d *CollapseDetector) Severity() string { return d.Sev }
func (d *CollapseDetector) MinBase() int     { return 1 }

func (d *CollapseDetector) Assess(cur float64, base []float64) (bool, string) {
	m := meanOf(base)
	if m >= d.MinLevel && cur <= m*d.CollapseFrac {
		return true, fmt.Sprintf("%s collapsed to %.0f from trailing mean %.0f", d.Watch, cur, m)
	}
	return false, ""
}

func (d *CollapseDetector) Cleared(cur, frozen float64) bool {
	return cur >= frozen*d.RecoverFrac
}

// SustainedDetector raises when a value stays at or above a threshold
// for Run consecutive cycles — the signature of a prune storm flapping
// routes every cycle, as opposed to a one-off churn burst.
type SustainedDetector struct {
	KindName string
	Watch    Metric
	Sev      string
	// Threshold is the per-cycle level; Run how many consecutive cycles
	// (including the current one) must reach it.
	Threshold float64
	Run       int
}

func (d *SustainedDetector) Kind() string     { return d.KindName }
func (d *SustainedDetector) Observes() Metric { return d.Watch }
func (d *SustainedDetector) Severity() string { return d.Sev }
func (d *SustainedDetector) MinBase() int     { return d.Run - 1 }

func (d *SustainedDetector) Assess(cur float64, base []float64) (bool, string) {
	if cur < d.Threshold {
		return false, ""
	}
	for i := 0; i < d.Run-1; i++ {
		if base[len(base)-1-i] < d.Threshold {
			return false, ""
		}
	}
	return true, fmt.Sprintf("%s held at or above %.0f for %d consecutive cycles (now %.0f)",
		d.Watch, d.Threshold, d.Run, cur)
}

func (d *SustainedDetector) Cleared(cur, frozen float64) bool {
	return cur < d.Threshold
}

// DefaultDetectors returns the standard detector set: the paper's
// route-injection step detector (spikeFactor, spikeMinJump) plus the
// incident-library signatures for RP loss, SA storms, MBGP route leaks,
// and prune-storm route flapping.
func DefaultDetectors() []Detector {
	return []Detector{
		&SpikeDetector{KindName: KindRouteInjection, Watch: MetricRoutes,
			Sev: SeverityCritical, Factor: spikeFactor, MinJump: spikeMinJump},
		&CollapseDetector{KindName: KindRPLoss, Watch: MetricSACache,
			Sev: SeverityCritical, MinLevel: 3, CollapseFrac: 0.25, RecoverFrac: 0.3},
		&SpikeDetector{KindName: KindSAStorm, Watch: MetricSACache,
			Sev: SeverityWarning, Factor: 2.0, MinJump: 30},
		&SpikeDetector{KindName: KindRouteLeak, Watch: MetricMBGPRoutes,
			Sev: SeverityCritical, Factor: 1.5, MinJump: 10},
		&SustainedDetector{KindName: KindRouteFlap, Watch: MetricRouteChurn,
			Sev: SeverityWarning, Threshold: 50, Run: 3},
	}
}

// SetDetectors replaces the detector set. Detectors run in slice order
// on every ingest; order is part of the deterministic anomaly log, so
// register them once at startup, before the first cycle.
func (p *Processor) SetDetectors(ds ...Detector) {
	p.detectors = append([]Detector(nil), ds...)
}

// Detectors returns the registered detector set in run order.
func (p *Processor) Detectors() []Detector {
	return append([]Detector(nil), p.detectors...)
}

// openEpisode tracks one in-progress anomaly: the ring ID of its
// Anomaly record and the baseline mean frozen when it opened.
type openEpisode struct {
	ID     int
	Frozen float64
}

// appendAnomaly adds a to the capped ring, evicting the oldest records
// (and dropping any episode they carried) once MaxAnomalies is reached.
func (p *Processor) appendAnomaly(a Anomaly) {
	max := p.MaxAnomalies
	if max <= 0 {
		max = DefaultMaxAnomalies
	}
	p.anomalies = append(p.anomalies, a)
	for len(p.anomalies) > max {
		ev := p.anomalies[0]
		p.anomalies = p.anomalies[1:]
		p.firstID++
		p.evicted++
		if ep, ok := p.open[ev.Target][ev.Kind]; ok && ep.ID == ev.ID {
			delete(p.open[ev.Target], ev.Kind)
		}
	}
}

// window is what the detectors read of one series: its newest values
// and how many values and gaps it has recorded. Ingest and MarkGap feed
// it through push, and an import replays the store's points through the
// same push, so no checkpoint carries it.
type window struct {
	vals []float64 // the newest values, oldest first
	n    int       // values pushed
	gaps int       // gaps pushed
	run  int       // gaps pushed since the newest value
	// lastRun is the gaps pushed between the two newest values: the
	// outage the newest value ended.
	lastRun int
}

// push records one point, keeping the newest keep values.
func (w *window) push(pt tsdb.Point, keep int) {
	if pt.Gap {
		w.gaps++
		w.run++
		return
	}
	w.n++
	w.lastRun, w.run = w.run, 0
	if len(w.vals) >= keep {
		w.vals = w.vals[:copy(w.vals, w.vals[len(w.vals)-keep+1:])]
	}
	w.vals = append(w.vals, pt.V)
}

// win is the baseline length in cycles, at least 1.
func (p *Processor) win() int { return max(p.Window, 1) }

// keep is how many values a window holds: the current one and the
// baseline before it, all detect reads.
func (p *Processor) keep() int { return p.win() + 1 }

// detect runs the registered detectors against the target's freshly
// extended windows. Called from Ingest only — collection gaps never
// reach here, which is what keeps open episodes from resolving while
// the monitor is blind.
func (p *Processor) detect(target string, at time.Time, ws map[Metric]*window) {
	ref := ws[MetricRoutes]
	// Indices are absolute — positions in the series' whole history — so
	// the baseline anchor outlives the values the window has let go; they
	// are translated to window positions only when slicing.
	n := ref.n
	if n == 0 {
		return
	}
	reset := false
	if n == 1 {
		p.baseStart[target] = 0
		reset = true
	} else if p.staleBaseline(ref) {
		// The monitor was blind long enough that the pre-outage window
		// can no longer anchor a judgement: seed a fresh baseline here.
		p.baseStart[target] = n - 1
		reset = true
	}
	win := p.win()
	for _, d := range p.detectors {
		w := ws[d.Observes()]
		if w == nil || w.n != n {
			continue
		}
		cur := w.vals[len(w.vals)-1]
		if ep, ok := p.open[target][d.Kind()]; ok {
			a := &p.anomalies[ep.ID-p.firstID]
			if d.Cleared(cur, ep.Frozen) {
				a.Resolved = true
				a.ResolvedAt = at
				delete(p.open[target], d.Kind())
			} else {
				a.LastSeen = at
			}
			continue
		}
		if reset {
			continue
		}
		lo := max(p.baseStart[target], n-1-win)
		// The window holds values n-len(w.vals) through n-1; a Window
		// raised mid-run has not filled it yet.
		base := w.vals[max(lo-(n-len(w.vals)), 0) : len(w.vals)-1]
		need := d.MinBase()
		if need < 1 {
			need = 1
		}
		if len(base) < need {
			continue
		}
		raise, detail := d.Assess(cur, base)
		if !raise {
			continue
		}
		id := p.nextID
		p.nextID++
		if p.open[target] == nil {
			p.open[target] = make(map[string]openEpisode)
		}
		p.open[target][d.Kind()] = openEpisode{ID: id, Frozen: meanOf(base)}
		p.appendAnomaly(Anomaly{
			ID:       id,
			Target:   target,
			At:       at,
			Kind:     d.Kind(),
			Detail:   detail,
			Severity: d.Severity(),
			LastSeen: at,
		})
	}
}

// staleBaseline reports whether GapResetCycles or more consecutive
// collection gaps separate the newest value from the previous one.
func (p *Processor) staleBaseline(w *window) bool {
	limit := p.GapResetCycles
	if limit <= 0 {
		limit = DefaultGapResetCycles
	}
	return w.n >= 2 && w.lastRun >= limit
}

// meanOf averages a slice in index order (deterministic summation).
func meanOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// OpenAnomalies returns the currently unresolved anomalies in detection
// order.
func (l *anomalyLog) OpenAnomalies() []Anomaly {
	var out []Anomaly
	for _, a := range l.anomalies {
		if !a.Resolved {
			out = append(out, a)
		}
	}
	return out
}

// AnomaliesEvicted returns how many anomalies the capped ring has
// dropped; Anomalies() holds the most recent MaxAnomalies records.
func (l *anomalyLog) AnomaliesEvicted() uint64 { return l.evicted }

// KindCount is one kind's entry in the anomaly rollup.
type KindCount struct {
	Kind  string `json:"kind"`
	Open  int    `json:"open"`
	Total int    `json:"total"`
}

// AnomalyRollup is the aggregate anomaly health view served under
// /health: counts over the retained ring plus the eviction counter.
type AnomalyRollup struct {
	// Total counts every anomaly ever raised (retained + evicted);
	// Open/Resolved/Critical/Warning count the retained ring.
	Total    int         `json:"total"`
	Open     int         `json:"open"`
	Resolved int         `json:"resolved"`
	Evicted  uint64      `json:"evicted"`
	Critical int         `json:"critical"`
	Warning  int         `json:"warning"`
	ByKind   []KindCount `json:"by_kind,omitempty"`
}

// Rollup summarizes the anomaly ring, deterministically (ByKind sorted
// by kind name).
func (l *anomalyLog) Rollup() AnomalyRollup {
	return RollupOf(l.anomalies, l.evicted)
}

// CrossTargetIncident is the cross-target correlation view: one anomaly
// kind currently open at two or more targets at once — the signature of
// a network-wide incident rather than a single sick router.
type CrossTargetIncident struct {
	Kind      string    `json:"kind"`
	Severity  string    `json:"severity"`
	Targets   []string  `json:"targets"`
	FirstSeen time.Time `json:"first_seen"`
}

// CrossTarget correlates open episodes across targets. Output is
// deterministic: incidents sorted by kind, targets sorted by name,
// FirstSeen the earliest open episode's first-seen time.
func (l *anomalyLog) CrossTarget() []CrossTargetIncident {
	return CrossTargetOf(l.anomalies)
}
