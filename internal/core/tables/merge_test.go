package tables

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/addr"
)

// refMergeSnapshots is MergeSnapshots as it stood before the k-way merge:
// two maps and two sorts. It is kept verbatim as the oracle
// FuzzMergeSnapshots compares against.
func refMergeSnapshots(name string, at time.Time, snaps ...*Snapshot) *Snapshot {
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

// fuzzBytes hands out the fuzzer's bytes as small choices; once they
// run out every choice is 0.
type fuzzBytes []byte

func (b *fuzzBytes) pick(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// fuzzSnapshots decodes a handful of snapshots from data, drawing every
// field from a few values so that keys collide across and within
// snapshots and every tie-break is reached: nil snapshots, targets seen
// twice at different or equal At (one with no target at all), equal
// instants in two locations, and tables sorted, unsorted, or listing a
// key twice.
func fuzzSnapshots(data []byte) []*Snapshot {
	b := fuzzBytes(data)
	base := time.Date(1998, 10, 1, 0, 0, 0, 0, time.UTC)
	when := func() time.Time {
		t := base.Add(time.Duration(b.pick(3)) * time.Second)
		if b.pick(4) == 0 {
			t = t.In(time.FixedZone("x", 3600))
		}
		return t
	}
	ip := func() addr.IP { return addr.IP(0x0a000000 + b.pick(5)) }
	snaps := make([]*Snapshot, b.pick(7))
	for i := range snaps {
		if b.pick(6) == 0 {
			continue
		}
		sn := &Snapshot{Target: [...]string{"", "a", "b", "c"}[b.pick(4)], At: when()}
		for n := b.pick(9); n > 0; n-- {
			sn.Pairs = append(sn.Pairs, PairEntry{Source: ip(), Group: ip(),
				Flags: [...]string{"D", "S", "DP"}[b.pick(3)], RateKbps: float64(b.pick(4)),
				Packets: uint64(b.pick(4)), Since: when().UnixNano()})
		}
		for n := b.pick(9); n > 0; n-- {
			sn.Routes = append(sn.Routes, RouteEntry{Prefix: addr.Prefix{Addr: ip(), Len: uint8(8 + b.pick(2))},
				Gateway: ip(), Local: b.pick(2) == 0, Metric: b.pick(3), Since: when().UnixNano()})
		}
		if b.pick(2) == 0 {
			sort.SliceStable(sn.Pairs, func(x, y int) bool { return pairOrder(&sn.Pairs[x], &sn.Pairs[y]) < 0 })
			sort.SliceStable(sn.Routes, func(x, y int) bool { return routeOrder(&sn.Routes[x], &sn.Routes[y]) < 0 })
		}
		snaps[i] = sn
	}
	return snaps
}

// FuzzMergeSnapshots holds the k-way merge to the map-based merge it
// replaced: reflect.DeepEqual aggregates, nil and empty tables told
// apart, over any permutation of the decoded snapshots.
func FuzzMergeSnapshots(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		data := make([]byte, 16+rng.Intn(400))
		rng.Read(data)
		f.Add(data, int64(i))
	}
	f.Add([]byte{}, int64(0))
	f.Fuzz(func(t *testing.T, data []byte, perm int64) {
		snaps := fuzzSnapshots(data)
		rand.New(rand.NewSource(perm)).Shuffle(len(snaps), func(i, j int) { snaps[i], snaps[j] = snaps[j], snaps[i] })
		at := time.Date(1998, 10, 1, 0, 0, 5, 0, time.UTC)
		got, want := MergeSnapshots("fleet", at, snaps...), refMergeSnapshots("fleet", at, snaps...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merge differs\n got: %+v\nwant: %+v", got, want)
		}
	})
}

// TestMergeEarliestSinceAcrossAt states the merge's tie-break where a
// longest-uptime rule would disagree with it: a stale snapshot (a
// handed-off target whose new owner has not reported yet) beside a newer
// one of another target. Of two rows for one key, the one whose state
// began first wins — its Since, flags and gateway — though the newer
// snapshot reports the longer uptime at its later At.
func TestMergeEarliestSinceAcrossAt(t *testing.T) {
	t0 := time.Date(1998, 10, 1, 0, 0, 0, 0, time.UTC)
	began := t0.Add(-time.Hour).UnixNano()        // up 1h at the stale At
	later := t0.Add(-30 * time.Minute).UnixNano() // up 2h30m at the newer At
	p, src, grp := addr.MustParsePrefix("10.0.0.0/8"), addr.IP(0x0a000001), addr.IP(0xe0020001)
	stale := &Snapshot{Target: "a", At: t0,
		Pairs:  PairTable{{Source: src, Group: grp, Flags: "S", RateKbps: 1, Since: began}},
		Routes: RouteTable{{Prefix: p, Gateway: 1, Metric: 2, Since: began}}}
	newer := &Snapshot{Target: "b", At: t0.Add(2 * time.Hour),
		Pairs:  PairTable{{Source: src, Group: grp, Flags: "D", RateKbps: 5, Since: later}},
		Routes: RouteTable{{Prefix: p, Gateway: 2, Metric: 2, Since: later}}}
	for _, snaps := range [][]*Snapshot{{stale, newer}, {newer, stale}} {
		got := MergeSnapshots("fleet", newer.At, snaps...)
		want := &Snapshot{Target: "fleet", At: newer.At,
			Pairs:  PairTable{{Source: src, Group: grp, Flags: "S", RateKbps: 5, Since: began}},
			Routes: RouteTable{{Prefix: p, Gateway: 1, Metric: 2, Since: began}}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("merge = %+v, want the rows whose state began first %+v", got, want)
		}
	}
}
