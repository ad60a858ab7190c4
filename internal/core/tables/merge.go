// Snapshot merging: the order-independent multi-vantage aggregation the
// paper's conclusion calls for, shared by the Monitor's aggregate stage
// and the shard supervisor's fan-in tier.
package tables

import (
	"slices"
	"time"
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
//
// Each table is merged as the sorted run it is (walk.go), by union.
func MergeSnapshots(name string, at time.Time, snaps ...*Snapshot) *Snapshot {
	pairs := make([]PairTable, 0, len(snaps))
	routes := make([]RouteTable, 0, len(snaps))
	foldPair := func(acc, e *PairEntry) { *acc = mergePair(*acc, *e) }
	foldRoute := func(acc, e *RouteEntry) {
		if routePreferred(*e, *acc) {
			*acc = *e
		}
	}
next:
	for _, sn := range snaps {
		for _, o := range snaps { // a newer snapshot of the target supersedes sn
			if sn == nil || o != nil && sn.Target != "" && o.Target == sn.Target && o.At.After(sn.At) {
				continue next
			}
		}
		pairs = append(pairs, sorted(sn.Pairs, pairOrder, foldPair))
		routes = append(routes, sorted(sn.Routes, routeOrder, foldRoute))
	}
	return &Snapshot{Target: name, At: at, Pairs: union(pairOrder, foldPair, pairs...), Routes: union(routeOrder, foldRoute, routes...)}
}

// sorted returns t if its keys strictly increase, otherwise a stably
// sorted copy in which the rows sharing a key are folded into the first
// in the order t lists them. The budget is the copy and its closure.
//
//mantra:hotpath budget=2
func sorted[T ~[]E, E any](t T, order func(a, b *E) int, fold func(acc, e *E)) T {
	for j := 1; j < len(t); j++ {
		if order(&t[j-1], &t[j]) >= 0 {
			s := slices.Clone(t)
			slices.SortStableFunc(s, func(a, b E) int { return order(&a, &b) })
			n := 1
			for k := 1; k < len(s); k++ {
				if order(&s[n-1], &s[k]) == 0 {
					fold(&s[n-1], &s[k])
				} else {
					s[n] = s[k]
					n++
				}
			}
			return s[:n]
		}
	}
	return t
}

// union merges tables whose keys strictly increase into one table with a
// row per key, in key order, folding the rows that share a key into the
// first in table order, as the map it replaced did. A first pass counts
// the keys, so the output (the budget: its make and appends) is allocated
// once at its length; it is nil when empty.
//
//mantra:hotpath budget=2
func union[T ~[]E, E any](order func(a, b *E) int, fold func(acc, e *E), ts ...T) T {
	heads := make([]int, len(ts))
	least := make([]int, len(ts)) // least[:m] hold the least key at their heads
	var out T
	for pass, n := 0, 0; pass < 2; pass++ {
		out = slices.Grow(out, n) // n is 0 on the counting pass: out stays nil
		clear(heads)
		for ; ; n++ {
			m := 0
			for i, t := range ts {
				if heads[i] == len(t) {
					continue
				}
				c := -1
				if m > 0 {
					c = order(&t[heads[i]], &ts[least[0]][heads[least[0]]])
				}
				if c < 0 {
					m = 0
				}
				if c <= 0 {
					least[m] = i
					m++
				}
			}
			if m == 0 {
				break
			}
			for k, i := range least[:m] {
				switch {
				case pass == 0:
				case k == 0:
					out = append(out, ts[i][heads[i]])
				default:
					fold(&out[len(out)-1], &ts[i][heads[i]])
				}
				heads[i]++
			}
		}
	}
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
