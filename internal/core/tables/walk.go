// The sorted-table invariant and the one place a table is compared with
// its predecessor. Routers render their tables in key order — routes by
// prefix, pairs by (group, source) — so two consecutive tables of one
// target differ by what a single merge pass over both finds, and
// MergeSnapshots folds many targets' tables into one in the same order by
// a k-way pass over them (union, in merge.go). The delta logger's Append
// and ApplyRecord and the processor's route-churn count are all the
// two-table pass with a different visitor.
package tables

import "cmp"

func routeOrder(a, b *RouteEntry) int { return a.Prefix.Compare(b.Prefix) }

func pairOrder(a, b *PairEntry) int {
	if c := cmp.Compare(a.Group, b.Group); c != 0 {
		return c
	}
	return cmp.Compare(a.Source, b.Source)
}

// Walk visits the prefixes of prev and cur in ascending order, once
// each: visit(old, nil) for a route only prev holds, visit(nil, new) for
// one only cur holds, visit(old, new) for one both hold. prev must be a
// table an earlier Walk returned (nil included). cur is checked first:
// if a row is out of order or repeats a prefix, the walk runs over a
// stably sorted copy in which the last row of each prefix wins — cur
// is never written. Walk returns the table it walked as cur, the prev of
// the next cycle.
//
// Both Walks stay out of line so that a caller's visitor stays on its
// stack: inlined into another package, the call would land on the
// generic walk, whose function parameters the compiler then takes to
// escape, and every cycle would allocate its visitor and what it
// captures.
//
//go:noinline
func (prev RouteTable) Walk(cur RouteTable, visit func(old, new *RouteEntry)) RouteTable {
	return walk(prev, cur, routeOrder, visit)
}

// Walk is RouteTable.Walk over (group, source) keys.
//
//go:noinline
func (prev PairTable) Walk(cur PairTable, visit func(old, new *PairEntry)) PairTable {
	return walk(prev, cur, pairOrder, visit)
}

func walk[T ~[]E, E any](prev, cur T, order func(a, b *E) int, visit func(old, new *E)) T {
	cur = sorted(cur, order, func(acc, e *E) { *acc = *e })
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch c := order(&prev[i], &cur[j]); {
		case c < 0:
			visit(&prev[i], nil)
			i++
		case c > 0:
			visit(nil, &cur[j])
			j++
		default:
			visit(&prev[i], &cur[j])
			i++
			j++
		}
	}
	for ; i < len(prev); i++ {
		visit(&prev[i], nil)
	}
	for ; j < len(cur); j++ {
		visit(nil, &cur[j])
	}
	return cur
}
