package process

import (
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/core/tables"
)

// RouteStability tracks per-prefix stability characteristics across
// cycles — the route-monitoring outputs §II-B enumerates: route
// lifetimes, frequency of changes, and individual route stability.
type RouteStability struct {
	// byPrefix accumulates per-prefix observations for one target.
	byPrefix map[addr.Prefix]*prefixHistory
	// cycles counts observations.
	cycles int
}

type prefixHistory struct {
	// completed counts the reachable cycles of finished periods. The
	// current period is run-length: while up it adds the cycles from
	// upAt on, so a prefix that stays up costs nothing per cycle.
	completed int
	// upAt is the cycle index (RouteStability.cycles) of the current rise.
	upAt int
	// flaps counts disappearances (present -> absent transitions).
	flaps int
	// currentSince is when the current reachability period began.
	currentSince time.Time
	// lifetimes collects completed reachability periods.
	lifetimes []time.Duration
	up        bool
}

// present returns how many of the tracker's cycles the prefix was
// reachable in.
func (h *prefixHistory) present(cycles int) int {
	if h.up {
		return h.completed + cycles - h.upAt + 1
	}
	return h.completed
}

// rise opens a reachability period in cycle that began at since.
func (h *prefixHistory) rise(cycle int, since time.Time) {
	h.up = true
	h.upAt = cycle
	h.currentSince = since
}

// fall closes the current period: the prefix is absent from cycle,
// observed at at.
func (h *prefixHistory) fall(cycle int, at time.Time) {
	h.up = false
	h.flaps++
	h.completed += cycle - h.upAt
	h.lifetimes = append(h.lifetimes, at.Sub(h.currentSince))
}

// NewRouteStability returns an empty tracker.
func NewRouteStability() *RouteStability {
	return &RouteStability{byPrefix: make(map[addr.Prefix]*prefixHistory)}
}

// ObserveDelta folds one cycle in from its delta-log record: the cycle
// stamped at upserted these routes and removed these prefixes relative
// to the cycle before. An upsert of a prefix that is not up is a rise,
// a removal is a fall, and an upsert of a prefix that is up (a metric or
// gateway change, an uptime reset) is no transition, so a cycle costs
// its delta entries, not its table. It is the tracker's only input in
// the product: cycle.Core.RouteStability folds a target's delta-log
// records through it when asked. A rise takes the entry's Since as the
// start of the period, which tables.BuildSnapshot sets to the cycle's
// At − Uptime.
func (rs *RouteStability) ObserveDelta(at time.Time, upserted []tables.RouteEntry, removed []addr.Prefix) {
	rs.cycles++
	for _, e := range upserted {
		rs.rise(e.Prefix, e.Since)
	}
	for _, p := range removed {
		if h := rs.byPrefix[p]; h != nil && h.up {
			h.fall(rs.cycles, at)
		}
	}
}

// rise opens a reachability period for p in the current cycle unless
// one is open already.
func (rs *RouteStability) rise(p addr.Prefix, since time.Time) {
	h := rs.byPrefix[p]
	if h == nil {
		h = &prefixHistory{}
		rs.byPrefix[p] = h
	}
	if !h.up {
		h.rise(rs.cycles, since)
	}
}

// Observe folds one cycle in from its whole route table: every listed
// prefix that is not up rises, every up prefix the table does not list
// falls. Nothing in the product calls it — the delta log holds the
// records, and ObserveDelta folds them. It is the table-form statement
// of what the tracker computes: FuzzStabilityFromRecords holds
// ObserveDelta to it, and the benchmark's layer walk times it.
func (rs *RouteStability) Observe(routes tables.RouteTable, at time.Time) {
	rs.cycles++
	listed := make(map[addr.Prefix]bool, len(routes))
	for _, r := range routes {
		listed[r.Prefix] = true
		rs.rise(r.Prefix, at.Add(-r.Uptime))
	}
	for p, h := range rs.byPrefix {
		if h.up && !listed[p] {
			h.fall(rs.cycles, at)
		}
	}
}

// PrefixStats is the stability summary of one prefix.
type PrefixStats struct {
	Prefix addr.Prefix
	// Availability is the fraction of observed cycles the prefix was
	// reachable.
	Availability float64
	// Flaps counts complete disappear events.
	Flaps int
	// MeanLifetime averages completed reachability periods (0 if the
	// route never went away).
	MeanLifetime time.Duration
}

// Cycles returns the number of observations folded in.
func (rs *RouteStability) Cycles() int { return rs.cycles }

// TrackedPrefixes returns how many distinct prefixes have been seen.
func (rs *RouteStability) TrackedPrefixes() int { return len(rs.byPrefix) }

// Stats returns per-prefix summaries sorted by prefix.
func (rs *RouteStability) Stats() []PrefixStats {
	out := make([]PrefixStats, 0, len(rs.byPrefix))
	for p, h := range rs.byPrefix {
		st := PrefixStats{Prefix: p, Flaps: h.flaps}
		if rs.cycles > 0 {
			st.Availability = float64(h.present(rs.cycles)) / float64(rs.cycles)
		}
		if len(h.lifetimes) > 0 {
			var sum time.Duration
			for _, d := range h.lifetimes {
				sum += d
			}
			st.MeanLifetime = sum / time.Duration(len(h.lifetimes))
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

// LeastStable returns the n prefixes with the most flaps (ties broken by
// lower availability) — the troubleshooting list a route monitor surfaces.
func (rs *RouteStability) LeastStable(n int) []PrefixStats {
	all := rs.Stats()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Flaps != all[j].Flaps {
			return all[i].Flaps > all[j].Flaps
		}
		if all[i].Availability != all[j].Availability {
			return all[i].Availability < all[j].Availability
		}
		return all[i].Prefix.Compare(all[j].Prefix) < 0
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// Summary aggregates across prefixes.
type StabilitySummary struct {
	Prefixes int
	// StablePrefixes never flapped.
	StablePrefixes int
	// MeanAvailability averages per-prefix availability.
	MeanAvailability float64
	// TotalFlaps across all prefixes.
	TotalFlaps int
}

// Summary computes the aggregate view.
func (rs *RouteStability) Summary() StabilitySummary {
	var s StabilitySummary
	s.Prefixes = len(rs.byPrefix)
	if s.Prefixes == 0 {
		return s
	}
	// Sum in sorted prefix order: map iteration order varies run to run,
	// and the floating-point accumulation must not.
	availSum := 0.0
	for _, p := range sortedPrefixes(rs.byPrefix) {
		h := rs.byPrefix[p]
		if h.flaps == 0 {
			s.StablePrefixes++
		}
		s.TotalFlaps += h.flaps
		availSum += float64(h.present(rs.cycles)) / float64(rs.cycles)
	}
	s.MeanAvailability = availSum / float64(s.Prefixes)
	return s
}
