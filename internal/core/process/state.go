// Checkpoint state for the processor and route-stability trackers.
//
// The durable archive (internal/core/logger) checkpoints full monitor
// state so restart recovery is bounded by the WAL tail length rather
// than the whole collection history. The processor's series and the
// stability trackers' per-prefix histories are pure functions of the
// ingested snapshots, so exporting and re-importing them is exactly
// equivalent to re-ingesting every archived cycle — just cheaper.
package process

import (
	"slices"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/core/tables"
	"repro/internal/core/tsdb"
)

// State is the exportable form of a Processor. All fields are plain data
// so the state gob-encodes; Series pointers are deep-copied on export and
// import, never shared with a live processor.
type State struct {
	SenderThresholdKbps float64
	SpikeFactor         float64
	SpikeMinJump        int
	Window              int
	MaxAnomalies        int
	GapResetCycles      int
	SeriesRetain        int

	Series map[string]map[Metric]*Series
	// Store is the compressed long-horizon layer's state. Sealed blocks
	// checkpoint far smaller than the raw Series export they replace.
	Store *tsdb.State
	// LastRoute is, per target, the prefixes of the last table ingested,
	// in Prefix.Compare order: what the next cycle's churn is counted
	// against.
	LastRoute map[string][]addr.Prefix
	Anomalies []Anomaly
	NextID    int
	FirstID   int
	Evicted   uint64
	Open      []OpenEpisodeState
	BaseStart map[string]int
}

// OpenEpisodeState is the exportable form of one in-progress anomaly
// episode: which ring entry it updates and the baseline frozen at
// detection time that resolution is judged against.
type OpenEpisodeState struct {
	Target string
	Kind   string
	ID     int
	Frozen float64
}

func copySeries(s *Series) *Series {
	return &Series{
		Times:       append([]time.Time(nil), s.Times...),
		Values:      append([]float64(nil), s.Values...),
		Gaps:        append([]time.Time(nil), s.Gaps...),
		Dropped:     s.Dropped,
		DroppedGaps: s.DroppedGaps,
		retain:      s.retain,
	}
}

// ExportState deep-copies the processor's accumulated state.
func (p *Processor) ExportState() *State {
	st := &State{
		SenderThresholdKbps: p.SenderThresholdKbps,
		SpikeFactor:         p.SpikeFactor,
		SpikeMinJump:        p.SpikeMinJump,
		Window:              p.Window,
		MaxAnomalies:        p.MaxAnomalies,
		GapResetCycles:      p.GapResetCycles,
		SeriesRetain:        p.retain,
		Series:              make(map[string]map[Metric]*Series, len(p.series)),
		Store:               p.store.Export(),
		LastRoute:           make(map[string][]addr.Prefix, len(p.prevRoutes)),
		Anomalies:           append([]Anomaly(nil), p.anomalies...),
		NextID:              p.nextID,
		FirstID:             p.firstID,
		Evicted:             p.evicted,
		BaseStart:           make(map[string]int, len(p.baseStart)),
	}
	for target, ts := range p.series {
		cp := make(map[Metric]*Series, len(ts))
		for m, s := range ts {
			cp[m] = copySeries(s)
		}
		st.Series[target] = cp
	}
	for target, routes := range p.prevRoutes {
		prefixes := make([]addr.Prefix, len(routes))
		for i := range routes {
			prefixes[i] = routes[i].Prefix
		}
		st.LastRoute[target] = prefixes
	}
	for target, v := range p.baseStart {
		st.BaseStart[target] = v
	}
	// The open-episode map is exported sorted by target then kind: the
	// export gob-encodes straight into checkpoints, so map-iteration
	// order here would make checkpoint bytes differ run to run.
	for target, eps := range p.open {
		for kind, ep := range eps {
			st.Open = append(st.Open, OpenEpisodeState{
				Target: target,
				Kind:   kind,
				ID:     ep.ID,
				Frozen: ep.Frozen,
			})
		}
	}
	sort.Slice(st.Open, func(i, j int) bool {
		if st.Open[i].Target != st.Open[j].Target {
			return st.Open[i].Target < st.Open[j].Target
		}
		return st.Open[i].Kind < st.Open[j].Kind
	})
	return st
}

// ImportState replaces the processor's accumulated state with a deep copy
// of st. It mutates the receiver in place — consumers holding the
// *Processor (the HTTP server does) observe the restored state without
// re-wiring.
func (p *Processor) ImportState(st *State) {
	if st == nil {
		return
	}
	p.SenderThresholdKbps = st.SenderThresholdKbps
	p.SpikeFactor = st.SpikeFactor
	p.SpikeMinJump = st.SpikeMinJump
	p.Window = st.Window
	p.retain = st.SeriesRetain
	p.series = make(map[string]map[Metric]*Series, len(st.Series))
	for target, ts := range st.Series {
		cp := make(map[Metric]*Series, len(ts))
		for m, s := range ts {
			sr := copySeries(s)
			sr.retain = p.retain
			sr.trim()
			cp[m] = sr
		}
		p.series[target] = cp
	}
	// Self-exported store state always round-trips; the checkpoint blob
	// carrying it is CRC-validated before it gets here.
	_ = p.store.Import(st.Store)
	p.prevRoutes = make(map[string]tables.RouteTable, len(st.LastRoute))
	for target, prefixes := range st.LastRoute {
		routes := make(tables.RouteTable, len(prefixes))
		for i, pr := range prefixes {
			routes[i].Prefix = pr
		}
		p.routeChurn(target, routes)
	}
	p.MaxAnomalies = st.MaxAnomalies
	p.GapResetCycles = st.GapResetCycles
	p.anomalies = append([]Anomaly(nil), st.Anomalies...)
	p.nextID = st.NextID
	p.firstID = st.FirstID
	p.evicted = st.Evicted
	p.baseStart = make(map[string]int, len(st.BaseStart))
	for target, v := range st.BaseStart {
		p.baseStart[target] = v
	}
	p.open = make(map[string]map[string]openEpisode, len(st.Open))
	for _, ep := range st.Open {
		m := p.open[ep.Target]
		if m == nil {
			m = make(map[string]openEpisode)
			p.open[ep.Target] = m
		}
		m[ep.Kind] = openEpisode{ID: ep.ID, Frozen: ep.Frozen}
	}
	// Detector thresholds travel with the state; rebuild the default set
	// from them unless the consumer installed a custom set explicitly.
	if !p.customDetectors {
		p.detectors = DefaultDetectors(p.SpikeFactor, p.SpikeMinJump)
	}
}

// PrefixState is the exportable per-prefix history of a RouteStability
// tracker.
type PrefixState struct {
	Prefix       addr.Prefix
	Present      int
	Flaps        int
	CurrentSince time.Time
	Lifetimes    []time.Duration
	Up           bool
}

// StabilityState is the exportable form of a RouteStability tracker.
type StabilityState struct {
	Cycles   int
	Prefixes []PrefixState
}

// sortedPrefixes returns the keys of m in Prefix.Compare order.
func sortedPrefixes[V any](m map[addr.Prefix]V) []addr.Prefix {
	keys := make([]addr.Prefix, 0, len(m))
	for p := range m {
		keys = append(keys, p)
	}
	slices.SortFunc(keys, addr.Prefix.Compare)
	return keys
}

// ExportState copies the tracker's accumulated state, sorted by prefix:
// the export gob-encodes straight into checkpoints, so map-iteration
// order here would make checkpoint bytes differ run to run. The
// reachable set is the prefixes exported Up.
func (rs *RouteStability) ExportState() *StabilityState {
	st := &StabilityState{Cycles: rs.cycles}
	if len(rs.byPrefix) > 0 {
		st.Prefixes = make([]PrefixState, 0, len(rs.byPrefix))
	}
	for _, p := range sortedPrefixes(rs.byPrefix) {
		h := rs.byPrefix[p]
		st.Prefixes = append(st.Prefixes, PrefixState{
			Prefix:       p,
			Present:      h.present(rs.cycles),
			Flaps:        h.flaps,
			CurrentSince: h.currentSince,
			Lifetimes:    append([]time.Duration(nil), h.lifetimes...),
			Up:           h.up,
		})
	}
	return st
}

// StabilityFromState rebuilds a tracker from exported state.
func StabilityFromState(st *StabilityState) *RouteStability {
	rs := NewRouteStability()
	if st == nil {
		return rs
	}
	rs.cycles = st.Cycles
	for _, ps := range st.Prefixes {
		h := &prefixHistory{
			flaps:        ps.Flaps,
			currentSince: ps.CurrentSince,
			lifetimes:    append([]time.Duration(nil), ps.Lifetimes...),
			up:           ps.Up,
		}
		// Present is a count and the live form run-length: an up prefix
		// books every reachable cycle so far to its current period, as
		// if it rose Present cycles ago.
		if h.up {
			h.upAt = st.Cycles - ps.Present + 1
		} else {
			h.completed = ps.Present
		}
		rs.byPrefix[ps.Prefix] = h
	}
	return rs
}
