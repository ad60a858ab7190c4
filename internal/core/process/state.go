// Whole-state exports of the processor and of a route-stability
// tracker. No product code writes them: a checkpoint carries each
// target's TargetState (transfer.go), and a tracker is rebuilt from the
// delta log's records. They are kept for bench/layers.go, which times
// them.
package process

import (
	"slices"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/core/tsdb"
)

// State is the exportable form of a Processor. All fields are plain
// data. No product caller; kept for bench/layers.go.
type State struct {
	SenderThresholdKbps float64
	SpikeFactor         float64
	SpikeMinJump        int
	Window              int
	MaxAnomalies        int
	GapResetCycles      int

	// Store is the compressed store's state: every series point.
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

// ExportState deep-copies the processor's accumulated state. No product
// caller; kept for bench/layers.go.
func (p *Processor) ExportState() *State {
	st := &State{
		SenderThresholdKbps: p.SenderThresholdKbps,
		SpikeFactor:         p.SpikeFactor,
		SpikeMinJump:        p.SpikeMinJump,
		Window:              p.Window,
		MaxAnomalies:        p.MaxAnomalies,
		GapResetCycles:      p.GapResetCycles,
		Store:               p.store.Export(),
		LastRoute:           make(map[string][]addr.Prefix, len(p.prevRoutes)),
		Anomalies:           append([]Anomaly(nil), p.anomalies...),
		NextID:              p.nextID,
		FirstID:             p.firstID,
		Evicted:             p.evicted,
		BaseStart:           make(map[string]int, len(p.baseStart)),
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
	// The open-episode map is exported sorted by target then kind, so
	// equal states export equal values.
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

// StabilityState is the exportable form of a RouteStability tracker. No
// product caller; kept for bench/layers.go.
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

// ExportState copies the tracker's accumulated state, sorted by prefix
// so that map-iteration order never reaches an encoding of it. The reachable
// set is the prefixes exported Up. No product caller; kept for
// bench/layers.go and the tests, which compare trackers through it.
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
