package logger

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

func pair(s, g string, rate float64) tables.PairEntry {
	return tables.PairEntry{Source: addr.MustParse(s), Group: addr.MustParse(g), RateKbps: rate, Flags: "D"}
}

func route(p string, metric int) tables.RouteEntry {
	return tables.RouteEntry{Prefix: addr.MustParsePrefix(p), Gateway: addr.MustParse("10.0.0.1"), Metric: metric}
}

func snap(at time.Time, pairs tables.PairTable, routes tables.RouteTable) *tables.Snapshot {
	return &tables.Snapshot{Target: "fixw", At: at, Pairs: pairs, Routes: routes}
}

func TestFirstCycleIsFullDelta(t *testing.T) {
	l := New()
	sn := snap(sim.Epoch,
		tables.PairTable{pair("1.1.1.1", "224.1.1.1", 5)},
		tables.RouteTable{route("10.0.0.0/8", 1), route("11.0.0.0/8", 2)})
	l.Append(sn)
	rec, err := l.Record("fixw", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pairs.Upserted) != 1 || len(rec.Routes.Upserted) != 2 {
		t.Errorf("first record: %+v", rec)
	}
	if l.Cycles("fixw") != 1 || l.Cycles("nope") != 0 {
		t.Error("cycle counts wrong")
	}
}

func TestUnchangedCycleStoresNothing(t *testing.T) {
	l := New()
	pairs := tables.PairTable{pair("1.1.1.1", "224.1.1.1", 5)}
	routes := tables.RouteTable{route("10.0.0.0/8", 1)}
	l.Append(snap(sim.Epoch, pairs, routes))
	l.Append(snap(sim.Epoch.Add(time.Hour), pairs, routes))
	rec, _ := l.Record("fixw", 1)
	if len(rec.Pairs.Upserted)+len(rec.Pairs.Removed)+len(rec.Routes.Upserted)+len(rec.Routes.Removed) != 0 {
		t.Errorf("second record not empty: %+v", rec)
	}
	d, f, ratio := l.StorageStats("fixw")
	if d != 2 || f != 4 {
		t.Errorf("storage = %d/%d", d, f)
	}
	if ratio != 2 {
		t.Errorf("ratio = %f", ratio)
	}
}

func TestDeltaCapturesChangesAndRemovals(t *testing.T) {
	l := New()
	l.Append(snap(sim.Epoch,
		tables.PairTable{pair("1.1.1.1", "224.1.1.1", 5), pair("2.2.2.2", "224.1.1.1", 1)},
		tables.RouteTable{route("10.0.0.0/8", 1), route("11.0.0.0/8", 2)}))
	// Cycle 2: pair 1 rate changes, pair 2 removed, route 11/8 removed,
	// route 12/8 added.
	l.Append(snap(sim.Epoch.Add(time.Hour),
		tables.PairTable{pair("1.1.1.1", "224.1.1.1", 9)},
		tables.RouteTable{route("10.0.0.0/8", 1), route("12.0.0.0/8", 3)}))
	// The rate change is a counter change: the identity delta has no
	// upsert for it, the counter column carries the new rate.
	rec, _ := l.Record("fixw", 1)
	if len(rec.Pairs.Upserted) != 0 || rec.Pairs.Counters == nil {
		t.Errorf("pair upserts: %+v, counters %x", rec.Pairs.Upserted, rec.Pairs.Counters)
	}
	if p, _ := l.ReconstructPairs("fixw", 1); len(p) != 1 || p[0].RateKbps != 9 {
		t.Errorf("cycle 1 pairs: %+v", p)
	}
	if len(rec.Pairs.Removed) != 1 {
		t.Errorf("pair removals: %+v", rec.Pairs.Removed)
	}
	if len(rec.Routes.Upserted) != 1 || rec.Routes.Upserted[0].Prefix != addr.MustParsePrefix("12.0.0.0/8") {
		t.Errorf("route upserts: %+v", rec.Routes.Upserted)
	}
	if len(rec.Routes.Removed) != 1 || rec.Routes.Removed[0] != addr.MustParsePrefix("11.0.0.0/8") {
		t.Errorf("route removals: %+v", rec.Routes.Removed)
	}
}

func TestReconstructMatchesOriginal(t *testing.T) {
	l := New()
	snaps := []*tables.Snapshot{
		snap(sim.Epoch,
			tables.PairTable{pair("1.1.1.1", "224.1.1.1", 5), pair("2.2.2.2", "224.1.1.2", 1)},
			tables.RouteTable{route("10.0.0.0/8", 1)}),
		snap(sim.Epoch.Add(time.Hour),
			tables.PairTable{pair("1.1.1.1", "224.1.1.1", 7)},
			tables.RouteTable{route("10.0.0.0/8", 1), route("11.0.0.0/8", 4)}),
		snap(sim.Epoch.Add(2*time.Hour),
			tables.PairTable{pair("3.3.3.3", "224.1.1.3", 2)},
			tables.RouteTable{route("11.0.0.0/8", 4)}),
	}
	for _, sn := range snaps {
		l.Append(sn)
	}
	for i, want := range snaps {
		gotP, err := l.ReconstructPairs("fixw", i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotP, want.Pairs) {
			t.Errorf("cycle %d pairs:\n got %+v\nwant %+v", i, gotP, want.Pairs)
		}
		gotR, err := l.ReconstructRoutes("fixw", i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotR, want.Routes) {
			t.Errorf("cycle %d routes:\n got %+v\nwant %+v", i, gotR, want.Routes)
		}
		at, err := l.At("fixw", i)
		if err != nil || !at.Equal(want.At) {
			t.Errorf("cycle %d time = %v err=%v", i, at, err)
		}
	}
}

// TestReconstructRoutesSkipsPairs: ReconstructRoutes steps over each
// record's pair half without decoding it, so a history whose pairs are
// upserted every cycle, flags and all, costs it the allocations of the
// same routes logged with no pairs: not a flag string, not a pair row.
func TestReconstructRoutesSkipsPairs(t *testing.T) {
	const cycles = 12
	withPairs, routesOnly := New(), New()
	for c := 0; c < cycles; c++ {
		at := sim.Epoch.Add(time.Duration(c) * 30 * time.Minute)
		routes := tables.RouteTable{route("10.0.0.0/8", 1+c%3), route("11.0.0.0/8", 2)}
		pairs := tables.PairTable{pair("1.1.1.1", "224.1.1.1", 5), pair("2.2.2.2", "224.1.1.1", 1)}
		for i := range pairs {
			pairs[i].Flags = [...]string{"DT", "DP", "SPT"}[(c+i)%3] // a new identity every cycle
		}
		withPairs.Append(snap(at, pairs, routes))
		routesOnly.Append(snap(at, nil, routes))
	}
	if rec, _ := withPairs.Record("fixw", cycles-1); len(rec.Pairs.Upserted) != 2 {
		t.Fatalf("last cycle upserts %d pairs, want 2", len(rec.Pairs.Upserted))
	}
	allocs := func(l *Logger) float64 {
		return testing.AllocsPerRun(20, func() { _, _ = l.ReconstructRoutes("fixw", cycles-1) })
	}
	if got, want := allocs(withPairs), allocs(routesOnly); got != want {
		t.Errorf("ReconstructRoutes allocates %v times over a history with pair upserts, %v without: it decodes the pair half", got, want)
	}
}

func TestReconstructErrors(t *testing.T) {
	l := New()
	if _, err := l.ReconstructPairs("x", 0); err == nil {
		t.Error("unknown target accepted")
	}
	l.Append(snap(sim.Epoch, nil, nil))
	if _, err := l.ReconstructRoutes("fixw", 5); err == nil {
		t.Error("out-of-range cycle accepted")
	}
	if _, err := l.At("fixw", -1); err == nil {
		t.Error("negative cycle accepted")
	}
}

func TestExportStateRoundTrip(t *testing.T) {
	l := New()
	l.Append(snap(sim.Epoch,
		tables.PairTable{pair("1.1.1.1", "224.1.1.1", 5)},
		tables.RouteTable{route("10.0.0.0/8", 1)}))
	l.Append(snap(sim.Epoch.Add(time.Hour),
		tables.PairTable{pair("1.1.1.1", "224.1.1.1", 6)},
		tables.RouteTable{route("10.0.0.0/8", 1), route("11.0.0.0/8", 2)}))

	pay, err := decodeCheckpoint(appendCheckpoint(nil, 2, sim.Epoch.Add(time.Hour), l, nil))
	if err != nil {
		t.Fatal(err)
	}
	l2 := pay.Log
	if l2.Cycles("fixw") != 2 {
		t.Fatalf("loaded cycles = %d", l2.Cycles("fixw"))
	}
	a, _ := l.ReconstructPairs("fixw", 1)
	b, _ := l2.ReconstructPairs("fixw", 1)
	if !reflect.DeepEqual(a, b) {
		t.Error("loaded reconstruction differs")
	}
	// Appending after the import continues the delta chain correctly.
	l2.Append(snap(sim.Epoch.Add(2*time.Hour),
		tables.PairTable{pair("1.1.1.1", "224.1.1.1", 6)},
		tables.RouteTable{route("10.0.0.0/8", 1), route("11.0.0.0/8", 2)}))
	rec, _ := l2.Record("fixw", 2)
	if len(rec.Pairs.Upserted)+len(rec.Routes.Upserted) != 0 {
		t.Errorf("post-load delta not empty: %+v", rec)
	}
}

func TestTargetsListed(t *testing.T) {
	l := New()
	l.Append(snap(sim.Epoch, nil, nil))
	l.Append(&tables.Snapshot{Target: "ucsb", At: sim.Epoch})
	l.Append(&tables.Snapshot{Target: "aads", At: sim.Epoch})
	if got := l.Targets(); len(got) != 3 {
		t.Errorf("targets = %v", got)
	}
	// Targets feeds per-target checkpoint serialization, so the order must
	// be stable (sorted), not map order.
	got := l.Targets()
	if !sort.StringsAreSorted(got) {
		t.Errorf("targets not sorted: %v", got)
	}
	for i := 0; i < 20; i++ {
		if again := l.Targets(); !slicesEqual(again, got) {
			t.Fatalf("Targets order unstable: %v vs %v", again, got)
		}
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRouteDeltaEfficiencyOnStableTable(t *testing.T) {
	// The paper's claim: delta logging is very effective for the route
	// table. Simulate 50 cycles of a mostly-stable 500-route table.
	l := New()
	var routes tables.RouteTable
	for i := 0; i < 500; i++ {
		routes = append(routes, tables.RouteEntry{
			Prefix: addr.PrefixFrom(addr.IP(uint32(i)<<16), 16),
			Metric: 2,
		})
	}
	at := sim.Epoch
	for c := 0; c < 50; c++ {
		l.Append(snap(at, nil, routes))
		at = at.Add(time.Hour)
	}
	_, _, ratio := l.StorageStats("fixw")
	if ratio < 40 {
		t.Errorf("stable-table compression ratio = %.1f, want ~50", ratio)
	}
}
