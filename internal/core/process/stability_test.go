package process

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

func rt(prefixes ...string) tables.RouteTable {
	var out tables.RouteTable
	for _, p := range prefixes {
		out = append(out, tables.RouteEntry{Prefix: addr.MustParsePrefix(p), Metric: 1})
	}
	return out
}

func TestStabilityStablePrefix(t *testing.T) {
	rs := NewRouteStability()
	at := sim.Epoch
	for i := 0; i < 10; i++ {
		rs.Observe(rt("10.0.0.0/8", "11.0.0.0/8"), at)
		at = at.Add(30 * time.Minute)
	}
	if rs.Cycles() != 10 || rs.TrackedPrefixes() != 2 {
		t.Fatalf("cycles=%d prefixes=%d", rs.Cycles(), rs.TrackedPrefixes())
	}
	sum := rs.Summary()
	if sum.StablePrefixes != 2 || sum.TotalFlaps != 0 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.MeanAvailability != 1 {
		t.Errorf("availability = %f", sum.MeanAvailability)
	}
}

func TestStabilityFlapCounting(t *testing.T) {
	rs := NewRouteStability()
	at := sim.Epoch
	// Prefix 10/8 always there; 11/8 flaps twice.
	patterns := []bool{true, true, false, true, false, true}
	for _, up := range patterns {
		routes := rt("10.0.0.0/8")
		if up {
			routes = append(routes, rt("11.0.0.0/8")...)
		}
		rs.Observe(routes, at)
		at = at.Add(30 * time.Minute)
	}
	stats := rs.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	flappy := stats[1]
	if flappy.Prefix != addr.MustParsePrefix("11.0.0.0/8") {
		flappy = stats[0]
	}
	if flappy.Flaps != 2 {
		t.Errorf("flaps = %d, want 2", flappy.Flaps)
	}
	if flappy.Availability != 4.0/6.0 {
		t.Errorf("availability = %f", flappy.Availability)
	}
	if flappy.MeanLifetime <= 0 {
		t.Error("no lifetime recorded")
	}
	least := rs.LeastStable(1)
	if len(least) != 1 || least[0].Prefix != flappy.Prefix {
		t.Errorf("LeastStable = %+v", least)
	}
}

func TestStabilityUptimeAnchorsLifetime(t *testing.T) {
	rs := NewRouteStability()
	at := sim.Epoch.Add(10 * time.Hour)
	// The route has been up for 6 hours when first observed; when it
	// disappears one cycle later, its lifetime reflects the full period.
	routes := tables.RouteTable{{Prefix: addr.MustParsePrefix("10.0.0.0/8"), Uptime: 6 * time.Hour}}
	rs.Observe(routes, at)
	at = at.Add(30 * time.Minute)
	rs.Observe(nil, at)
	stats := rs.Stats()
	if stats[0].MeanLifetime != 6*time.Hour+30*time.Minute {
		t.Errorf("lifetime = %v", stats[0].MeanLifetime)
	}
}

func TestStabilityEmptySummary(t *testing.T) {
	rs := NewRouteStability()
	if s := rs.Summary(); s.Prefixes != 0 || s.MeanAvailability != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if got := rs.LeastStable(5); len(got) != 0 {
		t.Errorf("LeastStable on empty = %v", got)
	}
	if st := rs.ExportState(); st.Prefixes != nil {
		t.Errorf("empty tracker exports %+v, want a nil slice", st)
	}
}

// rebuiltTracker is the tracker as it stood when it built a fresh prefix
// set every cycle and counted presence one cycle at a time — the oracle
// for Observe's falls read off the histories and the run-length
// presence count.
type rebuiltTracker struct {
	cycles int
	last   map[addr.Prefix]bool
	hist   map[addr.Prefix]*PrefixState
}

func (o *rebuiltTracker) observe(routes tables.RouteTable, at time.Time) {
	o.cycles++
	cur := make(map[addr.Prefix]bool, len(routes))
	for _, r := range routes {
		h := o.hist[r.Prefix]
		if h == nil {
			h = &PrefixState{Prefix: r.Prefix}
			o.hist[r.Prefix] = h
		}
		// A table that repeats a prefix still reaches it in one cycle,
		// not two (the per-row count this replaces could pass 100 %).
		if !cur[r.Prefix] {
			h.Present++
		}
		cur[r.Prefix] = true
		if !h.Up {
			h.Up = true
			h.CurrentSince = at.Add(-r.Uptime)
		}
	}
	for p := range o.last {
		if h := o.hist[p]; !cur[p] && h.Up {
			h.Up = false
			h.Flaps++
			h.Lifetimes = append(h.Lifetimes, at.Sub(h.CurrentSince))
		}
	}
	o.last = cur
}

func (o *rebuiltTracker) export() *StabilityState {
	st := &StabilityState{Cycles: o.cycles}
	for _, p := range sortedPrefixes(o.hist) {
		h := *o.hist[p]
		h.Lifetimes = append([]time.Duration(nil), h.Lifetimes...)
		st.Prefixes = append(st.Prefixes, h)
	}
	return st
}

// churningTables is a seeded run of route tables over a small prefix
// pool: prefixes come, go, come back, and some rows repeat a prefix.
func churningTables(seed int64, cycles int) []tables.RouteTable {
	rng := sim.NewRNG(seed)
	out := make([]tables.RouteTable, cycles)
	for c := range out {
		for i := 0; i < 40; i++ {
			if rng.Intn(3) > 0 {
				e := tables.RouteEntry{Prefix: addr.PrefixFrom(addr.V4(10, byte(i), 0, 0), 16), Uptime: time.Duration(rng.Intn(600)) * time.Second}
				out[c] = append(out[c], e)
				if rng.Intn(10) == 0 {
					out[c] = append(out[c], e)
				}
			}
		}
	}
	return out
}

func TestObserveInPlaceMatchesRebuiltSet(t *testing.T) {
	got := NewRouteStability()
	want := &rebuiltTracker{hist: make(map[addr.Prefix]*PrefixState)}
	at := sim.Epoch
	for c, routes := range churningTables(11, 60) {
		got.Observe(routes, at)
		want.observe(routes, at)
		if g, w := encodeStability(t, got.ExportState()), encodeStability(t, want.export()); !bytes.Equal(g, w) {
			t.Fatalf("cycle %d: exported state differs from the rebuilt-set tracker", c)
		}
		at = at.Add(30 * time.Minute)
	}
	if w := StabilityFromState(want.export()).Summary(); got.Summary() != w || w.TotalFlaps == 0 {
		t.Fatalf("summary = %+v, want %+v with flaps", got.Summary(), w)
	}
}
