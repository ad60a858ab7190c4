// Snapshot merging: the order-independent multi-vantage aggregation the
// paper's conclusion calls for, shared by the Monitor's aggregate stage
// and the shard supervisor's fan-in tier.
package tables

import (
	"sort"
	"time"

	"repro/internal/addr"
)

// MergeSnapshots combines several routers' cycle snapshots into one
// aggregate view:
//
//   - Pair table: deduplicated on (source, group); the highest observed
//     rate wins (different routers see the same stream at different
//     points of its tree), counters take the maximum, uptime the longest.
//   - Route table: deduplicated on prefix with the best (lowest) metric.
//
// When the same target appears more than once — the shard-handoff race,
// where a dying worker's stale snapshot and the new owner's fresh one
// reach the fan-in together — only that target's newest snapshot (latest
// At) participates; snapshots with equal At fall through to the
// entry-level merge, which is commutative.
//
// The merge is order-independent: ties are broken by a total order over
// the entry fields rather than by arrival, so any permutation of snaps
// produces an identical aggregate — which is what lets the pipelined
// cycle engine and the shard fan-in merge snapshots without caring how
// collection finished.
func MergeSnapshots(name string, at time.Time, snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{Target: name, At: at}
	// Newest-sequence-wins per target: a stale duplicate (same target,
	// older At) must not drag withdrawn entries back into the aggregate.
	newest := make(map[string]time.Time)
	for _, sn := range snaps {
		if sn == nil || sn.Target == "" {
			continue
		}
		if cur, ok := newest[sn.Target]; !ok || sn.At.After(cur) {
			newest[sn.Target] = sn.At
		}
	}
	type pk struct{ s, g addr.IP }
	pairs := make(map[pk]PairEntry)
	routes := make(map[addr.Prefix]RouteEntry)
	for _, sn := range snaps {
		if sn == nil {
			continue
		}
		if sn.Target != "" && sn.At.Before(newest[sn.Target]) {
			continue
		}
		for _, e := range sn.Pairs {
			k := pk{s: e.Source, g: e.Group}
			cur, ok := pairs[k]
			if !ok {
				pairs[k] = e
				continue
			}
			pairs[k] = mergePair(cur, e)
		}
		for _, e := range sn.Routes {
			cur, ok := routes[e.Prefix]
			if !ok || routePreferred(e, cur) {
				routes[e.Prefix] = e
			}
		}
	}
	for _, e := range pairs {
		out.Pairs = append(out.Pairs, e)
	}
	sort.Slice(out.Pairs, func(i, j int) bool { return pairOrder(&out.Pairs[i], &out.Pairs[j]) < 0 })
	for _, e := range routes {
		out.Routes = append(out.Routes, e)
	}
	sort.Slice(out.Routes, func(i, j int) bool { return routeOrder(&out.Routes[i], &out.Routes[j]) < 0 })
	return out
}

// mergePair combines two observations of the same (source, group) pair.
// Rates and counters take the field-wise maximum; uptime, its anchored
// Since, and the flag string travel together from the dominant entry —
// the longer-lived one, ties broken by earlier Since then smaller flag
// string — so the merge commutes.
func mergePair(a, b PairEntry) PairEntry {
	dom, other := a, b
	if pairDominates(b, a) {
		dom, other = b, a
	}
	if other.RateKbps > dom.RateKbps {
		dom.RateKbps = other.RateKbps
	}
	if other.Packets > dom.Packets {
		dom.Packets = other.Packets
	}
	return dom
}

// pairDominates reports whether a wins the uptime/flags tie-break over b.
func pairDominates(a, b PairEntry) bool {
	if a.Uptime != b.Uptime {
		return a.Uptime > b.Uptime
	}
	if !a.Since.Equal(b.Since) {
		return a.Since.Before(b.Since)
	}
	return a.Flags < b.Flags
}

// routePreferred reports whether route a beats b for the same prefix:
// best (lowest) metric, then longest uptime, then a stable total order
// over the remaining fields so the choice never depends on which
// vantage's table arrived first.
func routePreferred(a, b RouteEntry) bool {
	if a.Metric != b.Metric {
		return a.Metric < b.Metric
	}
	if a.Uptime != b.Uptime {
		return a.Uptime > b.Uptime
	}
	if !a.Since.Equal(b.Since) {
		return a.Since.Before(b.Since)
	}
	if a.Local != b.Local {
		return a.Local
	}
	return a.Gateway < b.Gateway
}
