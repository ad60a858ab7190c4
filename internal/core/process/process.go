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
package process

import (
	"math"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/core/tables"
	"repro/internal/core/tsdb"
)

// DefaultSenderThresholdKbps is the paper's content/control threshold.
const DefaultSenderThresholdKbps = 4.0

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

// Series is an x-y time series, the raw material of the output graphs.
// By default it grows without bound; with a retention cap (see
// Processor.SetSeriesRetain) it becomes the *hot ring* over the most
// recent points, with full history living in the processor's
// compressed store. Dropped/DroppedGaps record how much the ring has
// trimmed, so indices into the full history (TotalLen) stay stable.
type Series struct {
	Times  []time.Time
	Values []float64
	// Gaps holds the cycle timestamps at which collection failed and no
	// value could be recorded — explicit markers so degraded cycles are
	// visible in the outputs instead of silently missing.
	Gaps []time.Time
	// Dropped counts value points trimmed off the front by the
	// retention ring; DroppedGaps counts trimmed gap markers. Both are
	// zero while the series is unbounded.
	Dropped     int
	DroppedGaps int

	retain int
}

// Append adds one point.
func (s *Series) Append(t time.Time, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
	s.trim()
}

// MarkGap records a failed cycle at time t.
func (s *Series) MarkGap(t time.Time) {
	s.Gaps = append(s.Gaps, t)
	s.trim()
}

// trim enforces the retention cap: the oldest value points beyond
// retain fall off the front (counted in Dropped), and gap markers older
// than the remaining window — or beyond retain of them — follow.
func (s *Series) trim() {
	if s.retain <= 0 {
		return
	}
	if n := len(s.Values) - s.retain; n > 0 {
		s.Times = s.Times[n:]
		s.Values = s.Values[n:]
		s.Dropped += n
	}
	cut := 0
	if len(s.Times) > 0 {
		for cut < len(s.Gaps) && s.Gaps[cut].Before(s.Times[0]) {
			cut++
		}
	}
	if n := len(s.Gaps) - s.retain; n > cut {
		cut = n
	}
	if cut > 0 {
		s.Gaps = s.Gaps[cut:]
		s.DroppedGaps += cut
	}
}

// GapCount returns the number of failed cycles recorded over the whole
// history, trimmed markers included.
func (s *Series) GapCount() int { return s.DroppedGaps + len(s.Gaps) }

// Len returns the number of points currently held in memory.
func (s *Series) Len() int { return len(s.Values) }

// TotalLen returns the number of points over the whole history: the
// in-memory window plus everything the retention ring has trimmed.
func (s *Series) TotalLen() int { return s.Dropped + len(s.Values) }

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

// Processor turns snapshots into series, summaries and anomalies.
type Processor struct {
	// SenderThresholdKbps classifies senders vs passive participants.
	SenderThresholdKbps float64
	// SpikeFactor triggers the route-injection detector when the route
	// count exceeds the trailing mean by this multiple (and SpikeMinJump
	// absolute routes). Consumed when the default detector set is built;
	// use SetDetectors for custom thresholds after construction.
	SpikeFactor  float64
	SpikeMinJump int
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

	series map[string]map[Metric]*Series
	// prevRoutes is, per target, the route table of the last snapshot
	// ingested, in the form RouteTable.Walk returns and held by
	// reference: what the next cycle's churn is counted against. A
	// target has an entry exactly when it has been ingested, an empty
	// table included.
	prevRoutes map[string]tables.RouteTable
	// store mirrors every appended point into the compressed long-
	// horizon layer; retain caps the in-memory hot rings (0 unbounded).
	store  *tsdb.Store
	retain int

	// anomalies is the capped ring, ordered by ID; anomalies[i].ID ==
	// firstID+i. nextID is the next ID to assign; evicted counts records
	// dropped off the front.
	anomalies []Anomaly
	firstID   int
	nextID    int
	evicted   uint64
	// open tracks in-progress episodes per target and kind; baseStart
	// is the series index from which a target's baseline may draw
	// (advanced past long outages).
	open      map[string]map[string]openEpisode
	baseStart map[string]int

	detectors       []Detector
	customDetectors bool
}

// New returns a processor with the paper's thresholds and the default
// detector set.
func New() *Processor {
	p := &Processor{
		SenderThresholdKbps: DefaultSenderThresholdKbps,
		SpikeFactor:         1.5,
		SpikeMinJump:        200,
		Window:              12,
		series:              make(map[string]map[Metric]*Series),
		prevRoutes:          make(map[string]tables.RouteTable),
		store:               tsdb.New(),
		open:                make(map[string]map[string]openEpisode),
		baseStart:           make(map[string]int),
	}
	p.detectors = DefaultDetectors(p.SpikeFactor, p.SpikeMinJump)
	return p
}

// Series returns the named series for a target, or nil. With a
// retention cap set this is the hot ring — the most recent points only;
// MaterializedSeries reads the full history back out of the store.
func (p *Processor) Series(target string, m Metric) *Series {
	ts := p.series[target]
	if ts == nil {
		return nil
	}
	return ts[m]
}

// Store exposes the compressed long-horizon series store every ingested
// point is mirrored into.
func (p *Processor) Store() *tsdb.Store { return p.store }

// SetSeriesRetain caps the in-memory hot rings at n points per series
// (0 restores unbounded growth). The cap is clamped to Window+2 so the
// anomaly detectors always see their full trailing baseline — detection
// output is byte-identical at any retention. Existing series are
// trimmed immediately.
func (p *Processor) SetSeriesRetain(n int) {
	if n > 0 {
		win := p.Window
		if win < 1 {
			win = 1
		}
		if min := win + 2; n < min {
			n = min
		}
	}
	p.retain = n
	for _, ts := range p.series {
		for _, s := range ts {
			s.retain = n
			s.trim()
		}
	}
}

// SeriesRetain returns the hot-ring cap, 0 when unbounded.
func (p *Processor) SeriesRetain() int { return p.retain }

// Query answers a store query over this processor's targets: the
// unsharded execution path behind /query.
func (p *Processor) Query(q tsdb.Query) (tsdb.Result, error) {
	return p.store.Query(q)
}

// MaterializedSeries reconstructs a target's full series from the
// compressed store — the streamed counterpart of Series, unaffected by
// the retention ring. Compression is lossless, so the result is
// point-for-point identical to an unbounded hot ring. Returns nil for
// an unseen series.
func (p *Processor) MaterializedSeries(target string, m Metric) *Series {
	pts, err := p.store.Materialize(target, string(m))
	if err != nil || pts == nil {
		return nil
	}
	s := &Series{}
	for _, pt := range pts {
		if pt.Gap {
			s.Gaps = append(s.Gaps, time.Unix(0, pt.T).UTC())
		} else {
			s.Times = append(s.Times, time.Unix(0, pt.T).UTC())
			s.Values = append(s.Values, pt.V)
		}
	}
	return s
}

// Targets returns the targets seen so far, sorted.
func (p *Processor) Targets() []string {
	out := make([]string, 0, len(p.series))
	for t := range p.series {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Anomalies returns the retained anomalies sorted by ID — detection
// order, deterministic across runs. The slice is a copy; records
// evicted from the capped ring (AnomaliesEvicted) are not included.
func (p *Processor) Anomalies() []Anomaly {
	return append([]Anomaly(nil), p.anomalies...)
}

func (p *Processor) seriesFor(target string) map[Metric]*Series {
	ts := p.series[target]
	if ts == nil {
		ts = make(map[Metric]*Series, len(AllMetrics))
		for _, m := range AllMetrics {
			ts[m] = &Series{retain: p.retain}
		}
		p.series[target] = ts
	}
	return ts
}

// MarkGap records a failed collection cycle for a target at time at: every
// series of that target gets an explicit gap marker, so downstream
// consumers can distinguish "no data because the target was down" from
// "series not yet started". The target's series are created if absent.
func (p *Processor) MarkGap(target string, at time.Time) {
	ns := at.UnixNano()
	for m, s := range p.seriesFor(target) {
		s.MarkGap(at)
		p.store.AppendGap(target, string(m), ns)
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

	// Extend series: the in-memory hot ring and the compressed store
	// both receive every point.
	ts := p.seriesFor(sn.Target)
	ns := sn.At.UnixNano()
	app := func(m Metric, v float64) {
		ts[m].Append(sn.At, v)
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

	p.detect(sn.Target, sn.At, ts)
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
