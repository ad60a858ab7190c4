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
				Packets: uint64(b.pick(4)), Uptime: time.Duration(b.pick(3)) * time.Hour, Since: when()})
		}
		for n := b.pick(9); n > 0; n-- {
			sn.Routes = append(sn.Routes, RouteEntry{Prefix: addr.Prefix{Addr: ip(), Len: 8 + b.pick(2)},
				Gateway: ip(), Local: b.pick(2) == 0, Metric: b.pick(3),
				Uptime: time.Duration(b.pick(3)) * time.Hour, Since: when()})
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
