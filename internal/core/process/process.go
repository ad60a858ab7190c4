// Package process implements Mantra's Data Processor: it turns normalized
// cycle snapshots into the monitoring results the paper presents — time
// series for the interactive graphs (Figures 3–9) and multi-column
// summary tables.
//
// The classification rules are the paper's (§IV-B): a participant sending
// above 4 kbps is a *sender* (content), at or below it a *passive
// participant* (control traffic such as RTCP feedback); a session with at
// least one sender is *active*. Bandwidth saved is estimated as the
// paper does: assuming every unicast path from a sender to each receiver
// would cross the router, unicast cost is density × stream rate.
//
// A Processor belongs to the goroutine that drives its cycles, and its
// own read methods are that goroutine's. Publish hands every other
// goroutine a View: the series, the anomaly log and the gap counts as
// they stood when it was called, immutable, read without a lock.
package process

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/core/tables"
	"repro/internal/core/tsdb"
)

// DefaultSenderThresholdKbps is the paper's content/control threshold.
const DefaultSenderThresholdKbps = 4.0

// spikeFactor and spikeMinJump parameterize the default route-injection
// detector: it fires when the route count exceeds the trailing mean by
// this multiple and by at least this many routes. SetDetectors installs
// other thresholds.
const (
	spikeFactor  = 1.5
	spikeMinJump = 200
)

// Metric names the time series the processor maintains.
type Metric string

// The metrics Mantra plots, one per figure panel.
const (
	MetricSessions       Metric = "sessions"        // Fig 3 top-left
	MetricParticipants   Metric = "participants"    // Fig 3 top-right
	MetricActiveSessions Metric = "active_sessions" // Fig 3 bottom-left
	MetricSenders        Metric = "senders"         // Fig 3 bottom-right
	MetricAvgDensity     Metric = "avg_density"     // Fig 4
	MetricBandwidthKbps  Metric = "bandwidth_kbps"  // Fig 5 left
	MetricSavedFactor    Metric = "saved_factor"    // Fig 5 right
	MetricActiveRatio    Metric = "active_ratio"    // Fig 6 left
	MetricSenderRatio    Metric = "sender_ratio"    // Fig 6 right
	MetricRoutes         Metric = "routes"          // Figs 7–9
	MetricRouteChurn     Metric = "route_churn"     // route stability
	MetricSACache        Metric = "sa_cache"        // MSDP SA-cache size
	MetricMBGPRoutes     Metric = "mbgp_routes"     // MBGP RIB size
)

// AllMetrics lists every series the processor maintains.
var AllMetrics = []Metric{
	MetricSessions, MetricParticipants, MetricActiveSessions, MetricSenders,
	MetricAvgDensity, MetricBandwidthKbps, MetricSavedFactor,
	MetricActiveRatio, MetricSenderRatio, MetricRoutes, MetricRouteChurn,
	MetricSACache, MetricMBGPRoutes,
}

// Series is an x-y time series, the raw material of the output graphs:
// a copy of one series' history, read back out of the processor's
// compressed store.
type Series struct {
	Times  []time.Time
	Values []float64
	// Gaps holds the cycle timestamps at which collection failed and no
	// value could be recorded — explicit markers so degraded cycles are
	// visible in the outputs instead of silently missing.
	Gaps []time.Time
}

// Append adds one point.
func (s *Series) Append(t time.Time, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// GapCount returns the number of failed cycles recorded.
func (s *Series) GapCount() int { return len(s.Gaps) }

// Len returns the number of value points.
func (s *Series) Len() int { return len(s.Values) }

// TotalLen returns the number of value points, as Len does. No product
// caller; kept for bench/run.go.
func (s *Series) TotalLen() int { return len(s.Values) }

// Last returns the most recent value, or 0 for an empty series.
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// Stats summarizes the series.
func (s *Series) Stats() (mean, median, stddev, min, max float64) {
	n := len(s.Values)
	if n == 0 {
		return 0, 0, 0, 0, 0
	}
	min, max = s.Values[0], s.Values[0]
	sum := 0.0
	for _, v := range s.Values {
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	mean = sum / float64(n)
	varsum := 0.0
	for _, v := range s.Values {
		varsum += (v - mean) * (v - mean)
	}
	stddev = math.Sqrt(varsum / float64(n))
	sorted := append([]float64(nil), s.Values...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		median = sorted[n/2]
	} else {
		median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return mean, median, stddev, min, max
}

// CycleStats is the per-cycle result of ingesting one snapshot.
type CycleStats struct {
	Target string
	At     time.Time

	Sessions       int
	Participants   int
	ActiveSessions int
	Senders        int
	// AvgDensity is the mean participants per session.
	AvgDensity float64
	// BandwidthKbps is the multicast traffic rate through the router.
	BandwidthKbps float64
	// SavedFactor is estimated unicast-equivalent bandwidth divided by
	// multicast bandwidth (Fig 5 right).
	SavedFactor float64
	// Routes is the DVMRP route-table size; RouteChurn the number of
	// prefixes added plus removed since the previous cycle.
	Routes     int
	RouteChurn int
	// SingleMemberSessions counts density-1 sessions (burst analysis).
	SingleMemberSessions int
	// SACache is the MSDP SA-cache size (0 at routers that are not RPs);
	// MBGPRoutes the MBGP RIB size (0 at non-speakers).
	SACache    int
	MBGPRoutes int
}

// Anomaly is a detected routing irregularity. An anomaly is an episode:
// it opens when a detector's signature first holds, LastSeen advances
// while the signature persists, and Resolved/ResolvedAt record the
// cycle at which the value returned to its pre-incident baseline.
type Anomaly struct {
	// ID is a monotonically increasing sequence number assigned at
	// detection, stable across ring eviction and crash recovery.
	ID     int       `json:"id"`
	Target string    `json:"target"`
	At     time.Time `json:"at"` // first seen
	Kind   string    `json:"kind"`
	Detail string    `json:"detail"`
	// Severity is SeverityWarning or SeverityCritical.
	Severity string    `json:"severity"`
	LastSeen time.Time `json:"last_seen"`
	Resolved bool      `json:"resolved"`
	// ResolvedAt is zero while the episode is open.
	ResolvedAt time.Time `json:"resolved_at,omitzero"`
}

// Processor turns snapshots into series, summaries and anomalies. It
// belongs to one goroutine, the cycle driver: its methods, reads
// included, are that goroutine's. Other goroutines read the View it
// last published.
type Processor struct {
	// SenderThresholdKbps classifies senders vs passive participants.
	SenderThresholdKbps float64
	// Window is the trailing window (in cycles) for anomaly baselines.
	Window int
	// MaxAnomalies caps the in-memory anomaly ring: the oldest records
	// are evicted once the cap is reached (AnomaliesEvicted counts
	// them). 0 means DefaultMaxAnomalies.
	MaxAnomalies int
	// GapResetCycles is how many consecutive collection gaps stale a
	// target's detection baseline: after an outage at least this long,
	// detection restarts from a fresh window instead of firing against
	// pre-outage values. 0 means DefaultGapResetCycles.
	GapResetCycles int

	// windows holds, per target and metric, what the detectors read of
	// the series; the store holds the series itself.
	windows map[string]map[Metric]*window
	// prevRoutes is, per target, the route table of the last snapshot
	// ingested, in the form RouteTable.Walk returns and held by
	// reference: what the next cycle's churn is counted against. A
	// target has an entry exactly when it has been ingested, an empty
	// table included.
	prevRoutes map[string]tables.RouteTable
	// store holds every series point, compressed.
	store *tsdb.Store

	// anomalyLog is the capped anomaly ring.
	anomalyLog
	// open tracks in-progress episodes per target and kind; baseStart
	// is the series index from which a target's baseline may draw
	// (advanced past long outages).
	open      map[string]map[string]openEpisode
	baseStart map[string]int

	detectors []Detector

	// view is the last published View.
	view atomic.Pointer[View]
}

// anomalyLog is the capped anomaly ring, ordered by ID: anomalies[i].ID
// == firstID+i. nextID is the next ID to assign; evicted counts records
// dropped off the front. A Processor holds the live ring and a View a
// copy, and both answer the ring's reads through it.
type anomalyLog struct {
	anomalies []Anomaly
	firstID   int
	nextID    int
	evicted   uint64
}

// View is what a Processor published: its series, anomaly log and gap
// counts as they stood at Publish. It is immutable and safe from any
// goroutine; its reads answer as the Processor's own did at that
// instant.
type View struct {
	anomalyLog
	store *tsdb.View
	// gaps is each target's gap count.
	gaps map[string]int
}

// Publish takes a View of the processor as it stands and makes it the
// one View returns. The view shares the store's blocks (tsdb.Store.View)
// and copies the anomaly ring, whose open records change in place.
func (p *Processor) Publish() *View {
	v := &View{anomalyLog: p.anomalyLog, store: p.store.View(), gaps: make(map[string]int, len(p.windows))}
	v.anomalies = slices.Clone(p.anomalies)
	for target, w := range p.windows {
		v.gaps[target] = w[MetricRoutes].gaps
	}
	p.view.Store(v)
	return v
}

// View returns the last published View. Safe from any goroutine.
func (p *Processor) View() *View { return p.view.Load() }

// Store exposes the store view the series reads answer from.
func (v *View) Store() *tsdb.View { return v.store }

// Series reads a target's series out of the view, as Processor.Series
// does out of the live store.
func (v *View) Series(target string, m Metric) *Series {
	return seriesOf(v.store.Materialize(target, string(m)))
}

// GapCount returns how many collection gaps a target had recorded, 0
// for an unseen target.
func (v *View) GapCount(target string) int { return v.gaps[target] }

// Targets returns the targets the view holds series for, sorted.
func (v *View) Targets() []string { return v.store.Targets() }

// New returns a processor with the paper's thresholds and the default
// detector set.
func New() *Processor {
	p := &Processor{
		SenderThresholdKbps: DefaultSenderThresholdKbps,
		Window:              12,
		windows:             make(map[string]map[Metric]*window),
		prevRoutes:          make(map[string]tables.RouteTable),
		store:               tsdb.New(),
		open:                make(map[string]map[string]openEpisode),
		baseStart:           make(map[string]int),
	}
	p.detectors = DefaultDetectors()
	p.Publish()
	return p
}

// Series reads a target's series back out of the compressed store,
// nil for an unseen series. Compression is lossless, so the copy holds
// every point ingested. It costs a decode of the whole history: a
// reader that must not, such as /graph, scans Store instead.
func (p *Processor) Series(target string, m Metric) *Series {
	return seriesOf(p.store.Materialize(target, string(m)))
}

// seriesOf converts a materialized point run into a Series, nil for an
// unseen series.
func seriesOf(pts []tsdb.Point, err error) *Series {
	if err != nil || pts == nil {
		return nil
	}
	s := &Series{}
	for _, pt := range pts {
		if pt.Gap {
			s.Gaps = append(s.Gaps, time.Unix(0, pt.T).UTC())
		} else {
			s.Append(time.Unix(0, pt.T).UTC(), pt.V)
		}
	}
	return s
}

// Store exposes the compressed store that holds every series point,
// live: like the processor, it is the cycle driver's. Other goroutines
// read View().Store().
func (p *Processor) Store() *tsdb.Store { return p.store }

// GapCount returns how many collection gaps a target has recorded, 0
// for an unseen target.
func (p *Processor) GapCount(target string) int {
	if w := p.windows[target]; w != nil {
		return w[MetricRoutes].gaps
	}
	return 0
}

// Targets returns the targets seen so far, sorted.
func (p *Processor) Targets() []string { return p.store.Targets() }

// Anomalies returns the retained anomalies sorted by ID — detection
// order, deterministic across runs. The slice is a copy; records
// evicted from the capped ring (AnomaliesEvicted) are not included.
func (l *anomalyLog) Anomalies() []Anomaly {
	return append([]Anomaly(nil), l.anomalies...)
}

func (p *Processor) windowsFor(target string) map[Metric]*window {
	w := p.windows[target]
	if w == nil {
		w = make(map[Metric]*window, len(AllMetrics))
		for _, m := range AllMetrics {
			w[m] = &window{}
		}
		p.windows[target] = w
	}
	return w
}

// MarkGap records a failed collection cycle for a target at time at: every
// series of that target gets an explicit gap marker, so downstream
// consumers can distinguish "no data because the target was down" from
// "series not yet started". The metrics go in AllMetrics order: a gap
// can seal every series' block at once, and the mirror writes the
// blocks in the order they seal.
func (p *Processor) MarkGap(target string, at time.Time) {
	pt := tsdb.Point{T: at.UnixNano(), Gap: true}
	w, keep := p.windowsFor(target), p.keep()
	for _, m := range AllMetrics {
		w[m].push(pt, keep)
		p.store.AppendGap(target, string(m), pt.T)
	}
}

// Ingest processes one cycle snapshot: computes the cycle statistics,
// extends every series, and runs anomaly detection.
func (p *Processor) Ingest(sn *tables.Snapshot) CycleStats {
	return p.ingest(sn, len(sn.SAs), len(sn.MBGP))
}

// IngestCounts ingests a snapshot reconstructed from the delta log,
// which stores the MSDP/MBGP table magnitudes rather than their
// contents — the archive-recovery replay path. It is identical to
// Ingest except the two counts are supplied instead of measured, so a
// replayed cycle extends the sa_cache/mbgp_routes series (and drives
// the detectors) with exactly the values the original ingest saw.
func (p *Processor) IngestCounts(sn *tables.Snapshot, saCache, mbgpRoutes int) CycleStats {
	return p.ingest(sn, saCache, mbgpRoutes)
}

func (p *Processor) ingest(sn *tables.Snapshot, saCache, mbgpRoutes int) CycleStats {
	st := CycleStats{Target: sn.Target, At: sn.At}

	sessions := sn.Pairs.Sessions()
	participants := sn.Pairs.Participants()
	st.Sessions = len(sessions)
	st.Participants = len(participants)

	densitySum := 0
	for _, s := range sessions {
		densitySum += s.Density
		if s.Density == 1 {
			st.SingleMemberSessions++
		}
	}
	if st.Sessions > 0 {
		st.AvgDensity = float64(densitySum) / float64(st.Sessions)
	}

	for _, pe := range participants {
		if pe.MaxRateKbps > p.SenderThresholdKbps {
			st.Senders++
		}
	}

	// Active sessions and bandwidth-saved from per-pair rates.
	activeGroups := make(map[addr.IP]bool)
	unicastKbps := 0.0
	densityOf := make(map[addr.IP]int, len(sessions))
	for _, s := range sessions {
		densityOf[s.Group] = s.Density
	}
	for _, e := range sn.Pairs {
		st.BandwidthKbps += e.RateKbps
		if e.RateKbps > p.SenderThresholdKbps {
			activeGroups[e.Group] = true
			// The unicast equivalent of this stream: one copy per
			// receiver (density includes the sender itself).
			receivers := densityOf[e.Group] - 1
			if receivers < 1 {
				receivers = 1
			}
			unicastKbps += e.RateKbps * float64(receivers)
		} else {
			unicastKbps += e.RateKbps
		}
	}
	st.ActiveSessions = len(activeGroups)
	if st.BandwidthKbps > 0 {
		st.SavedFactor = unicastKbps / st.BandwidthKbps
	}

	st.Routes = len(sn.Routes)
	st.RouteChurn = p.routeChurn(sn.Target, sn.Routes)

	st.SACache = saCache
	st.MBGPRoutes = mbgpRoutes

	// Extend the detectors' windows and the series in the store. app
	// is called in AllMetrics order: a cycle can seal every series'
	// block at once, and the mirror writes blocks in the order they
	// seal.
	w, keep := p.windowsFor(sn.Target), p.keep()
	ns := sn.At.UnixNano()
	app := func(m Metric, v float64) {
		w[m].push(tsdb.Point{T: ns, V: v}, keep)
		p.store.Append(sn.Target, string(m), ns, v)
	}
	app(MetricSessions, float64(st.Sessions))
	app(MetricParticipants, float64(st.Participants))
	app(MetricActiveSessions, float64(st.ActiveSessions))
	app(MetricSenders, float64(st.Senders))
	app(MetricAvgDensity, st.AvgDensity)
	app(MetricBandwidthKbps, st.BandwidthKbps)
	app(MetricSavedFactor, st.SavedFactor)
	if st.Sessions > 0 {
		app(MetricActiveRatio, float64(st.ActiveSessions)/float64(st.Sessions))
	} else {
		app(MetricActiveRatio, 0)
	}
	if st.Participants > 0 {
		app(MetricSenderRatio, float64(st.Senders)/float64(st.Participants))
	} else {
		app(MetricSenderRatio, 0)
	}
	app(MetricRoutes, float64(st.Routes))
	app(MetricRouteChurn, float64(st.RouteChurn))
	app(MetricSACache, float64(st.SACache))
	app(MetricMBGPRoutes, float64(st.MBGPRoutes))

	p.detect(sn.Target, sn.At, w)
	return st
}

// routeChurn counts the prefixes routes adds to and drops from the
// target's previous table — a changed metric or gateway is not churn —
// and keeps routes, by reference, as the table the next call compares
// with. A target's first table has nothing to be compared with and
// counts no churn.
func (p *Processor) routeChurn(target string, routes tables.RouteTable) int {
	prev, seen := p.prevRoutes[target]
	churn := 0
	p.prevRoutes[target] = prev.Walk(routes, func(old, cur *tables.RouteEntry) {
		if seen && (old == nil || cur == nil) {
			churn++
		}
	})
	return churn
}

// DensityDistribution computes, for one snapshot, the fraction of
// sessions with at most k members and the participant share held by the
// top fraction of sessions — the §IV-B distribution claims.
func DensityDistribution(sn *tables.Snapshot, k int, topFrac float64) (atMostK float64, topShare float64) {
	sessions := sn.Pairs.Sessions()
	if len(sessions) == 0 {
		return 0, 0
	}
	cnt := 0
	sizes := make([]int, 0, len(sessions))
	total := 0
	for _, s := range sessions {
		if s.Density <= k {
			cnt++
		}
		sizes = append(sizes, s.Density)
		total += s.Density
	}
	atMostK = float64(cnt) / float64(len(sessions))
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	top := int(math.Ceil(topFrac * float64(len(sizes))))
	if top < 1 {
		top = 1
	}
	sum := 0
	for _, v := range sizes[:top] {
		sum += v
	}
	if total > 0 {
		topShare = float64(sum) / float64(total)
	}
	return atMostK, topShare
}
