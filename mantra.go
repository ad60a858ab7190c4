// Package mantra is the public API of the Mantra multicast monitoring
// system, a reproduction of:
//
//	P. Rajvaidya and K. C. Almeroth, "A Router-Based Technique for
//	Monitoring the Next-Generation of Internet Multicast Protocols",
//	ICPP 2001.
//
// Mantra monitors multicast at the network layer: each monitoring cycle
// it logs into the configured routers, dumps their internal tables
// (DVMRP routes, the multicast forwarding cache, IGMP/PIM/MSDP/MBGP
// state), normalizes the dumps into its local Pair/Participant/Session/
// Route tables, logs deltas for off-line analysis, updates the result
// time series, and refreshes the interactive summary tables served over
// HTTP.
//
// A Monitor drives the five modules of the paper's design:
// Data Collector → Router-Table Processor → Data Logger → Data Processor
// → Output Interface.
//
//	m := mantra.New()
//	m.AddTarget(mantra.Target{
//		Name:     "fixw",
//		Dialer:   collect.TCPDialer{Addr: "198.32.233.1:2601"},
//		Password: "public",
//		Prompt:   "fixw> ",
//	})
//	stats, err := m.RunCycle(time.Now())
package mantra

import (
	"net/http"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/cycle"
	"repro/internal/core/logger"
	"repro/internal/core/output"
	"repro/internal/core/process"
	"repro/internal/core/tables"
	"repro/internal/core/tsdb"
)

// Target identifies one monitored router; it aliases the collector's
// target so callers need only the public package for common use.
type Target = collect.Target

// Metric names a result time series; see the Metric* constants re-exported
// below.
type Metric = process.Metric

// The metrics a Monitor maintains per target, one per figure panel of the
// paper's evaluation.
const (
	MetricSessions       = process.MetricSessions
	MetricParticipants   = process.MetricParticipants
	MetricActiveSessions = process.MetricActiveSessions
	MetricSenders        = process.MetricSenders
	MetricAvgDensity     = process.MetricAvgDensity
	MetricBandwidthKbps  = process.MetricBandwidthKbps
	MetricSavedFactor    = process.MetricSavedFactor
	MetricActiveRatio    = process.MetricActiveRatio
	MetricSenderRatio    = process.MetricSenderRatio
	MetricRoutes         = process.MetricRoutes
	MetricRouteChurn     = process.MetricRouteChurn
	MetricSACache        = process.MetricSACache
	MetricMBGPRoutes     = process.MetricMBGPRoutes
)

// CycleStats is one cycle's computed statistics for one target.
type CycleStats = process.CycleStats

// Anomaly is a detected routing irregularity — an episode with
// first-seen/last-seen times, severity, and resolved state.
type Anomaly = process.Anomaly

// Detector is the pluggable incident-signature interface the processor
// runs after each ingest; see Monitor.Processor().SetDetectors.
type Detector = process.Detector

// AnomalyRollup is the aggregate anomaly view served under /health.
type AnomalyRollup = process.AnomalyRollup

// CrossTargetIncident is one anomaly kind open at two or more targets
// at once; served at /anomalies?cross=1.
type CrossTargetIncident = process.CrossTargetIncident

// Query describes one read against the compressed series store — a raw
// or downsampled range, an aggregate (min/max/avg/sum/count/rate), or a
// top-k ranking across targets. Served over HTTP at /query.
type Query = tsdb.Query

// QueryResult is an assembled query answer: one row per target, sorted
// by name, byte-identical whether the monitor runs unsharded or the
// shard supervisor fanned the query across workers.
type QueryResult = tsdb.Result

// Monitor is a running Mantra instance: one cycle core — the five
// modules wired into the stage engine, shared with every shard worker —
// plus the HTTP output server and the archive's checkpoint cadence.
type Monitor struct {
	// Commands is the dump set collected each cycle; defaults to the
	// standard six show commands.
	Commands []string

	targets []Target
	// core owns the resilient collector, delta logger, data processor,
	// the stage engine (with its consolidated per-target state) and the
	// WAL commit.
	core   *cycle.Core
	server *output.Server
	// lastResults holds the per-target outcomes of the latest cycle.
	lastResults []CollectResult
	// concurrency bounds the collection worker pool; see SetConcurrency.
	concurrency int
	// aggregate enables the combined multi-router view; see
	// EnableAggregation.
	aggregate bool
	// archive is the durable write-ahead archive, nil until EnableArchive.
	archive *archiveState
}

// New returns an idle monitor with the paper's default configuration
// (4 kbps sender threshold, standard command set).
func New() *Monitor {
	m := &Monitor{
		Commands: append([]string(nil), collect.StandardCommands...),
		core:     cycle.New(collect.DefaultPolicy(), nil, nil),
	}
	m.server = output.NewServer(m.core.Proc)
	m.core.Publish = m.refreshTables
	m.server.SetHealth(func() any { return m.HealthView() })
	m.server.SetStats(func() any { return m.EngineStats() })
	return m
}

// AddTarget registers a router to be polled each cycle. Registering a
// name that is already present replaces its dial settings in place.
// Either way the target's breaker and health ledger start fresh: a
// (re-)registration signals the operator swapped or fixed the device,
// and an inherited open breaker would silently delay the first
// collection of a healthy replacement.
func (m *Monitor) AddTarget(t Target) {
	m.core.Collector.ResetTarget(t.Name)
	for i := range m.targets {
		if m.targets[i].Name == t.Name {
			m.targets[i] = t
			return
		}
	}
	m.targets = append(m.targets, t)
}

// RemoveTarget unregisters a target and drops its breaker and health
// ledger. Its series, delta log and anomaly history remain — history
// outlives membership. It reports whether the target was registered.
func (m *Monitor) RemoveTarget(name string) bool {
	for i := range m.targets {
		if m.targets[i].Name == name {
			m.targets = append(m.targets[:i], m.targets[i+1:]...)
			m.core.Collector.ResetTarget(name)
			return true
		}
	}
	return false
}

// Targets returns the registered target names in registration order.
func (m *Monitor) Targets() []string {
	out := make([]string, len(m.targets))
	for i, t := range m.targets {
		out[i] = t.Name
	}
	return out
}

// RunCycle performs one full monitoring cycle stamped at now: resilient
// collection (retries, per-target circuit breakers, dump validation),
// table processing, delta logging, statistics, and summary-table refresh.
// It returns per-target statistics for the targets that produced a
// snapshot. A failing target no longer aborts the cycle: it is skipped,
// recorded in Health and LastResults, and its series get an explicit gap
// marker. The cycle errs (with ErrAllTargetsFailed) only when every
// target failed. RunCycle drives the stage engine with a single worker,
// i.e. the serial schedule; see RunCycleConcurrent for the pipelined one.
func (m *Monitor) RunCycle(now time.Time) ([]CycleStats, error) {
	return m.runEngine(now, 1)
}

// RouteStability returns the per-prefix stability tracker of a target,
// or nil before the first cycle — route lifetimes, availability and flap
// counts (the route-monitoring outputs of §II-B).
func (m *Monitor) RouteStability(target string) *process.RouteStability {
	return m.core.Engine.Stability(target)
}

// refreshTables rebuilds the published summary tables for the
// snapshot's target — the core's Publish hook.
func (m *Monitor) refreshTables(sn *tables.Snapshot) {
	name := sn.Target
	busiest := output.NewTable("busiest-"+name, "group", "density", "kbps", "protocol")
	for _, s := range process.BusiestSessions(sn, 20) {
		_ = busiest.AddRow(
			output.Str(s.Group.String()),
			output.Num(float64(s.Density)),
			output.Num(s.TotalRateKbps),
			output.Str(s.Protocol),
		)
	}
	m.server.RegisterTable(busiest)

	senders := output.NewTable("senders-"+name, "host", "groups", "max_kbps")
	for _, p := range process.TopSenders(sn, 20) {
		_ = senders.AddRow(
			output.Str(p.Host.String()),
			output.Num(float64(p.Groups)),
			output.Num(p.MaxRateKbps),
		)
	}
	m.server.RegisterTable(senders)

	routes := output.NewTable("routes-"+name, "metric", "count")
	rs := process.SummarizeRoutes(sn)
	for metric := 0; metric <= 64; metric++ {
		if c := rs.MetricCounts[metric]; c > 0 {
			_ = routes.AddRow(output.Num(float64(metric)), output.Num(float64(c)))
		}
	}
	m.server.RegisterTable(routes)
}

// Series returns the named result series for a target, or nil before the
// first cycle. With a retention cap (SetSeriesRetain) this is the hot
// ring over the most recent points; MaterializedSeries streams the full
// history back out of the compressed store.
func (m *Monitor) Series(target string, metric Metric) *process.Series {
	return m.core.Proc.Series(target, metric)
}

// MaterializedSeries reconstructs a target's full series from the
// compressed store, independent of the hot-ring retention cap.
// Compression is lossless, so the result is point-for-point identical
// to what an unbounded in-memory series would hold.
func (m *Monitor) MaterializedSeries(target string, metric Metric) *process.Series {
	return m.core.Proc.MaterializedSeries(target, metric)
}

// Query answers a series-store query — range, aggregate, or top-k —
// over this monitor's targets; the programmatic form of /query.
func (m *Monitor) Query(q Query) (QueryResult, error) {
	return m.core.Proc.Query(q)
}

// SetSeriesRetain caps the in-memory hot ring of every series at n
// points (0 restores unbounded growth). Full history stays queryable
// through the compressed store; the cap is clamped so anomaly
// detection is unaffected. Long-running daemons set this via the
// -series-retain flag.
func (m *Monitor) SetSeriesRetain(n int) { m.core.Proc.SetSeriesRetain(n) }

// Latest returns the most recent normalized snapshot for a target, or nil.
func (m *Monitor) Latest(target string) *tables.Snapshot {
	return m.core.Engine.Latest(target)
}

// Anomalies returns the retained anomalies in detection order; the ring
// is capped (SetMaxAnomalies) and AnomalyRollup counts evictions.
func (m *Monitor) Anomalies() []Anomaly {
	return m.core.Proc.Anomalies()
}

// OpenAnomalies returns the currently unresolved anomalies in detection
// order.
func (m *Monitor) OpenAnomalies() []Anomaly {
	return m.core.Proc.OpenAnomalies()
}

// AnomalyRollup returns the aggregate anomaly counts — the rollup
// served under /health alongside per-target collection health.
func (m *Monitor) AnomalyRollup() AnomalyRollup {
	return m.core.Proc.Rollup()
}

// SetMaxAnomalies caps the in-memory anomaly ring (0 restores the
// default, process.DefaultMaxAnomalies). Evicted records are counted in
// the rollup.
func (m *Monitor) SetMaxAnomalies(n int) { m.core.Proc.MaxAnomalies = n }

// Processor exposes the underlying data processor for advanced analysis
// (distribution computations, custom thresholds).
func (m *Monitor) Processor() *process.Processor { return m.core.Proc }

// Log exposes the delta logger for off-line reconstruction and archival.
func (m *Monitor) Log() *logger.Logger { return m.core.Log }

// Handler returns the HTTP handler serving results: series JSON, ASCII
// graphs, interactive tables, and the anomaly feed.
func (m *Monitor) Handler() http.Handler { return m.server }

// RegisterTable publishes an additional summary table.
func (m *Monitor) RegisterTable(t *output.Table) { m.server.RegisterTable(t) }

// BusiestSessions returns a snapshot's top-n sessions by bandwidth — the
// paper's "busiest multicast sessions" summary.
func BusiestSessions(sn *tables.Snapshot, n int) tables.SessionTable {
	return process.BusiestSessions(sn, n)
}

// TopSenders returns a snapshot's top-n participants by peak rate.
func TopSenders(sn *tables.Snapshot, n int) tables.ParticipantTable {
	return process.TopSenders(sn, n)
}

// DensityDistribution computes the fraction of sessions with at most k
// members and the participant share of the top fraction of sessions —
// the §IV-B distribution analysis.
func DensityDistribution(sn *tables.Snapshot, k int, topFrac float64) (atMostK, topShare float64) {
	return process.DensityDistribution(sn, k, topFrac)
}
