package forwarding

import (
	"math"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/sim"
)

var (
	s1 = addr.MustParse("128.111.41.2")
	s2 = addr.MustParse("130.207.8.4")
	g1 = addr.MustParse("224.2.0.1")
	g2 = addr.MustParse("224.2.0.2")
)

func TestUpsertPreservesCounters(t *testing.T) {
	tb := NewTable(1, 0)
	now := sim.Epoch
	k := Key{Source: s1, Group: g1}
	tb.Account(k, 1000, time.Minute, now)
	e := tb.Upsert(k, 3, []int{4, 5}, FlagSparse, now.Add(time.Minute))
	if e.Bytes != 1000 {
		t.Errorf("Bytes = %d", e.Bytes)
	}
	if e.IIF != 3 || len(e.OIFs) != 2 || !e.Flags.Has(FlagSparse) {
		t.Errorf("entry = %+v", e)
	}
	if !e.Created.Equal(now) {
		t.Error("Created reset by Upsert")
	}
}

func TestAccountCreatesDenseEntry(t *testing.T) {
	tb := NewTable(1, 0)
	e := tb.Account(Key{Source: s1, Group: g1}, 7000, time.Minute, sim.Epoch)
	if !e.Flags.Has(FlagDense) || e.IIF != -1 {
		t.Errorf("implicit entry = %+v", e)
	}
	if e.Packets == 0 || e.Bytes != 7000 {
		t.Errorf("counters = %d/%d", e.Packets, e.Bytes)
	}
}

func TestRateEstimate(t *testing.T) {
	tb := NewTable(1, 0)
	k := Key{Source: s1, Group: g1}
	now := sim.Epoch
	// 64 kbps for consecutive windows: 64_000/8 bytes per second.
	bytesPerMin := uint64(64000 / 8 * 60)
	var rate float64
	for i := 0; i < 8; i++ {
		e := tb.Account(k, bytesPerMin, time.Minute, now)
		rate = e.RateKbps
		now = now.Add(time.Minute)
	}
	if math.Abs(rate-64) > 1 {
		t.Errorf("RateKbps = %f, want ~64", rate)
	}
}

func TestDecayIdle(t *testing.T) {
	tb := NewTable(1, time.Hour)
	k := Key{Source: s1, Group: g1}
	now := sim.Epoch
	tb.Account(k, 100000, time.Minute, now)
	first := tb.Get(k).RateKbps
	now = now.Add(30 * time.Minute)
	tb.DecayIdle(now, 30*time.Minute)
	if tb.Get(k) == nil {
		t.Fatal("entry expired too early")
	}
	if tb.Get(k).RateKbps >= first {
		t.Error("rate did not decay")
	}
	// After the idle timeout, dense entries expire.
	now = now.Add(2 * time.Hour)
	if n := tb.DecayIdle(now, 2*time.Hour); n != 1 {
		t.Errorf("expired = %d", n)
	}
	if tb.Len() != 0 {
		t.Error("entry survived idle timeout")
	}
}

func TestDecayIdleKeepsSparse(t *testing.T) {
	tb := NewTable(1, time.Hour)
	k := Key{Source: s1, Group: g1}
	now := sim.Epoch
	tb.Upsert(k, 1, []int{2}, FlagSparse, now)
	tb.DecayIdle(now.Add(10*time.Hour), time.Hour)
	if tb.Get(k) == nil {
		t.Error("sparse entry must survive idleness while joined")
	}
}

func TestRemoveAndRemoveIf(t *testing.T) {
	tb := NewTable(1, 0)
	now := sim.Epoch
	tb.Upsert(Key{Source: s1, Group: g1}, 1, nil, FlagDense, now)
	tb.Upsert(Key{Source: s2, Group: g1}, 1, nil, FlagSparse, now)
	tb.Upsert(Key{Source: s1, Group: g2}, 1, nil, FlagSparse, now)
	if !tb.Remove(Key{Source: s1, Group: g1}) {
		t.Error("Remove missed")
	}
	if tb.Remove(Key{Source: s1, Group: g1}) {
		t.Error("double Remove succeeded")
	}
	n := tb.RemoveIf(func(e *Entry) bool { return e.Flags.Has(FlagSparse) })
	if n != 2 || tb.Len() != 0 {
		t.Errorf("RemoveIf = %d, len = %d", n, tb.Len())
	}
}

func TestEntriesSortedAndCopied(t *testing.T) {
	tb := NewTable(1, 0)
	now := sim.Epoch
	tb.Upsert(Key{Source: s2, Group: g2}, 1, []int{9}, FlagDense, now)
	tb.Upsert(Key{Source: s1, Group: g1}, 1, nil, FlagDense, now)
	tb.Upsert(Key{Source: s2, Group: g1}, 1, nil, FlagDense, now)
	es := tb.Entries()
	if len(es) != 3 {
		t.Fatalf("len = %d", len(es))
	}
	if es[0].Key != (Key{Source: s1, Group: g1}) || es[2].Key.Group != g2 {
		t.Errorf("order wrong: %v", es)
	}
	es[0].OIFs = append(es[0].OIFs, 42)
	if got := tb.Get(Key{Source: s1, Group: g1}); len(got.OIFs) != 0 {
		t.Error("Entries aliases internal state")
	}
}

func TestGroupsAndTotalRate(t *testing.T) {
	tb := NewTable(1, 0)
	now := sim.Epoch
	tb.Account(Key{Source: s1, Group: g1}, 60000, time.Minute, now)
	tb.Account(Key{Source: s2, Group: g1}, 60000, time.Minute, now)
	tb.Account(Key{Source: s1, Group: g2}, 60000, time.Minute, now)
	if gs := tb.Groups(); len(gs) != 2 {
		t.Errorf("Groups = %v", gs)
	}
	if tb.TotalRateKbps() <= 0 {
		t.Error("TotalRateKbps should be positive")
	}
}

func TestFlagString(t *testing.T) {
	if (FlagDense | FlagPruned).String() != "DP" {
		t.Errorf("got %q", (FlagDense | FlagPruned).String())
	}
	if (FlagSparse | FlagSPT | FlagRegister).String() != "STR" {
		t.Errorf("got %q", (FlagSparse | FlagSPT | FlagRegister).String())
	}
	if Flag(0).String() != "-" {
		t.Error("zero flags should render as -")
	}
}

func TestRouterAccessor(t *testing.T) {
	if NewTable(5, 0).Router() != 5 {
		t.Error("Router() wrong")
	}
}

func TestTotalRateKbpsOrderIndependent(t *testing.T) {
	// Regression for the PR 4 bug: the total used to be accumulated in
	// map-iteration order, so its low bits varied run to run. Rates with
	// wildly different magnitudes make any order change visible; 200
	// repeated reads must be bit-identical.
	tb := NewTable(1, 0)
	now := sim.Epoch
	rates := []float64{1e16, 1.0, -1e16, 0.25, 3.5e-3, 7e9, -7e9, 0.125}
	for i, r := range rates {
		k := Key{Source: addr.IP(uint32(i + 1)), Group: g1}
		e := tb.Upsert(k, 0, nil, FlagDense, now)
		e.RateKbps = r
	}
	first := math.Float64bits(tb.TotalRateKbps())
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(tb.TotalRateKbps()); got != first {
			t.Fatalf("read %d: sum bits %x != %x; map order leaked into the total", i, got, first)
		}
	}
	// The sum must be the sorted-key order, not whatever cancellation
	// another order would produce.
	want := 0.0
	for i := range rates {
		want += tb.entries[Key{Source: addr.IP(uint32(i + 1)), Group: g1}].RateKbps
	}
	if tb.TotalRateKbps() != want {
		t.Fatalf("TotalRateKbps = %v, want sorted-order sum %v", tb.TotalRateKbps(), want)
	}
}
