package mantra_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	mantra "repro"
	"repro/internal/addr"
	"repro/internal/core/collect"
	"repro/internal/core/tables"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/testfault"
	"repro/internal/topo"
	"repro/internal/workload"
)

func TestMergeSnapshotsDedup(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	s1 := &tables.Snapshot{Target: "a", At: sim.Epoch, Pairs: tables.PairTable{
		{Source: addr.MustParse("1.1.1.1"), Group: addr.MustParse("224.1.1.1"), RateKbps: 64, Packets: 100, Uptime: time.Hour},
		{Source: addr.MustParse("2.2.2.2"), Group: addr.MustParse("224.1.1.1"), RateKbps: 1},
	}, Routes: tables.RouteTable{
		{Prefix: addr.MustParsePrefix("10.0.0.0/8"), Metric: 3},
	}}
	s2 := &tables.Snapshot{Target: "b", At: sim.Epoch, Pairs: tables.PairTable{
		// Same pair seen elsewhere with lower rate but longer uptime.
		{Source: addr.MustParse("1.1.1.1"), Group: addr.MustParse("224.1.1.1"), RateKbps: 50, Packets: 200, Uptime: 2 * time.Hour},
		{Source: addr.MustParse("3.3.3.3"), Group: addr.MustParse("224.1.1.2"), RateKbps: 2},
	}, Routes: tables.RouteTable{
		{Prefix: addr.MustParsePrefix("10.0.0.0/8"), Metric: 1},
		{Prefix: addr.MustParsePrefix("11.0.0.0/8"), Metric: 2},
	}}
	agg := mantra.MergeSnapshots("aggregate", sim.Epoch, s1, s2, nil)
	if agg.Target != "aggregate" {
		t.Errorf("target = %q", agg.Target)
	}
	if len(agg.Pairs) != 3 {
		t.Fatalf("pairs = %d, want 3 (dedup)", len(agg.Pairs))
	}
	first := agg.Pairs[0]
	if first.RateKbps != 64 || first.Packets != 200 || first.Uptime != 2*time.Hour {
		t.Errorf("merged pair = %+v", first)
	}
	if len(agg.Routes) != 2 {
		t.Fatalf("routes = %d", len(agg.Routes))
	}
	if agg.Routes[0].Metric != 1 {
		t.Errorf("merged route metric = %d, want best (1)", agg.Routes[0].Metric)
	}
}

// TestMergeSnapshotsOrderIndependent: any permutation of the input
// snapshots must merge to the identical aggregate — the property that
// lets the cycle engine merge without caring how collection finished.
// The inputs deliberately include every tie the merge breaks: equal
// uptimes with different Since, equal metrics, field-wise max races.
func TestMergeSnapshotsOrderIndependent(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	src := addr.MustParse("1.1.1.1")
	grp := addr.MustParse("224.1.1.1")
	mk := func(target string, rate float64, pkts uint64, up time.Duration, since time.Time, flags string, metric int) *tables.Snapshot {
		return &tables.Snapshot{Target: target, At: sim.Epoch, Pairs: tables.PairTable{
			{Source: src, Group: grp, RateKbps: rate, Packets: pkts, Uptime: up, Since: since, Flags: flags},
		}, Routes: tables.RouteTable{
			{Prefix: addr.MustParsePrefix("10.0.0.0/8"), Metric: metric, Uptime: up, Since: since},
		}}
	}
	snaps := []*tables.Snapshot{
		mk("a", 64, 100, time.Hour, sim.Epoch.Add(-time.Hour), "DP", 3),
		mk("b", 50, 200, 2*time.Hour, sim.Epoch.Add(-2*time.Hour), "D", 1),
		// Same uptime as b, later Since, higher rate: rate must still win
		// field-wise while b's (Since, Flags) identity survives.
		mk("c", 99, 150, 2*time.Hour, sim.Epoch.Add(-time.Hour), "DT", 1),
		mk("d", 10, 400, 30*time.Minute, sim.Epoch.Add(-30*time.Minute), "P", 2),
		// Same uptime and Since as b: only the flags break the tie, and
		// the lesser wins whichever arrives first.
		mk("e", 20, 50, 2*time.Hour, sim.Epoch.Add(-2*time.Hour), "C", 1),
		nil,
	}
	ref := mantra.MergeSnapshots("aggregate", sim.Epoch, snaps...)
	perm := []int{0, 1, 2, 3, 4, 5}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		shuffled := make([]*tables.Snapshot, len(snaps))
		for i, p := range perm {
			shuffled[i] = snaps[p]
		}
		got := mantra.MergeSnapshots("aggregate", sim.Epoch, shuffled...)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("merge depends on input order (perm %v):\nref: %+v\ngot: %+v", perm, ref, got)
		}
	}
	// Sanity on the reference itself: one pair, rate/packets are maxima,
	// uptime belongs to the dominant (longest-lived, earliest-Since,
	// least-flags) entry.
	if len(ref.Pairs) != 1 {
		t.Fatalf("pairs = %d", len(ref.Pairs))
	}
	p := ref.Pairs[0]
	if p.RateKbps != 99 || p.Packets != 400 || p.Uptime != 2*time.Hour || p.Flags != "C" {
		t.Errorf("merged pair = %+v", p)
	}
	if len(ref.Routes) != 1 || ref.Routes[0].Metric != 1 || ref.Routes[0].Uptime != 2*time.Hour {
		t.Errorf("merged route = %+v", ref.Routes[0])
	}
}

// TestMergeSnapshotsHandoffRace: during a shard handoff the dying
// worker's last snapshot of a target and the new owner's fresh one can
// reach the fan-in in the same merge. The newest sequence (latest At)
// must win outright — a withdrawn pair or route from the stale snapshot
// must not reappear in the aggregate — and the result must stay
// order-independent.
func TestMergeSnapshotsHandoffRace(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	src := addr.MustParse("1.1.1.1")
	gone := addr.MustParse("9.9.9.9")
	grp := addr.MustParse("224.1.1.1")
	stale := &tables.Snapshot{Target: "fixw", At: sim.Epoch, Pairs: tables.PairTable{
		{Source: src, Group: grp, RateKbps: 64, Packets: 100, Uptime: time.Hour},
		// Withdrawn by the time the new owner collects: must not survive.
		{Source: gone, Group: grp, RateKbps: 8, Packets: 10, Uptime: time.Minute},
	}, Routes: tables.RouteTable{
		{Prefix: addr.MustParsePrefix("10.0.0.0/8"), Metric: 1},
		{Prefix: addr.MustParsePrefix("99.0.0.0/8"), Metric: 1},
	}}
	fresh := &tables.Snapshot{Target: "fixw", At: sim.Epoch.Add(time.Second), Pairs: tables.PairTable{
		{Source: src, Group: grp, RateKbps: 32, Packets: 150, Uptime: time.Hour + time.Second},
	}, Routes: tables.RouteTable{
		{Prefix: addr.MustParsePrefix("10.0.0.0/8"), Metric: 3},
	}}
	other := &tables.Snapshot{Target: "ucsb-r1", At: sim.Epoch, Pairs: tables.PairTable{
		{Source: src, Group: grp, RateKbps: 16, Packets: 50, Uptime: 30 * time.Minute},
	}}
	ref := mantra.MergeSnapshots("fleet", sim.Epoch.Add(time.Second), stale, fresh, other)
	if len(ref.Pairs) != 1 {
		t.Fatalf("pairs = %d, want 1 (stale 9.9.9.9 pair must not survive handoff)", len(ref.Pairs))
	}
	p := ref.Pairs[0]
	if p.Packets != 150 || p.Uptime != time.Hour+time.Second {
		t.Errorf("merged pair = %+v, want fresh fixw observation to dominate", p)
	}
	if p.RateKbps != 32 {
		t.Errorf("rate = %v: stale fixw snapshot leaked into the field-wise max", p.RateKbps)
	}
	if len(ref.Routes) != 1 {
		t.Fatalf("routes = %d, want 1 (stale 99/8 must not survive)", len(ref.Routes))
	}
	if ref.Routes[0].Metric != 3 {
		t.Errorf("route metric = %d, want the fresh snapshot's 3, not the stale 1", ref.Routes[0].Metric)
	}

	// Order independence holds with duplicates in play.
	snaps := []*tables.Snapshot{stale, fresh, other, nil}
	perm := []int{0, 1, 2, 3}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		shuffled := make([]*tables.Snapshot, len(snaps))
		for i, pi := range perm {
			shuffled[i] = snaps[pi]
		}
		got := mantra.MergeSnapshots("fleet", sim.Epoch.Add(time.Second), shuffled...)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("handoff-race merge depends on input order (perm %v):\nref: %+v\ngot: %+v", perm, ref, got)
		}
	}

	// Equal At (no real race — e.g. the engine's own aggregate fed back)
	// falls through to the commutative entry-level merge.
	tie := &tables.Snapshot{Target: "fixw", At: sim.Epoch, Pairs: tables.PairTable{
		{Source: src, Group: grp, RateKbps: 80, Packets: 90, Uptime: time.Hour},
	}}
	both := mantra.MergeSnapshots("fleet", sim.Epoch, stale, tie)
	if len(both.Pairs) != 2 {
		t.Fatalf("equal-At pairs = %d, want 2 (entry-level merge)", len(both.Pairs))
	}
	if both.Pairs[0].RateKbps != 80 {
		t.Errorf("equal-At merge rate = %v, want field-wise max 80", both.Pairs[0].RateKbps)
	}
}

func TestConcurrentCollectionWithAggregation(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	n, m := newMonitoredNetwork(t)
	m.EnableAggregation()
	for i := 0; i < 4; i++ {
		n.Step()
		stats, err := m.RunCycleConcurrent(n.Now())
		if err != nil {
			t.Fatal(err)
		}
		// Two real targets plus the aggregate.
		if len(stats) != 3 {
			t.Fatalf("stats = %d entries", len(stats))
		}
		agg := stats[2]
		if agg.Target != mantra.AggregateTarget {
			t.Fatalf("last stats target = %q", agg.Target)
		}
		// The combined view can never see fewer sessions or participants
		// than any single vantage.
		for _, st := range stats[:2] {
			if agg.Sessions < st.Sessions {
				t.Errorf("aggregate sessions %d < %s's %d", agg.Sessions, st.Target, st.Sessions)
			}
			if agg.Participants < st.Participants {
				t.Errorf("aggregate participants %d < %s's %d", agg.Participants, st.Target, st.Participants)
			}
			if agg.Routes < st.Routes {
				t.Errorf("aggregate routes %d < %s's %d", agg.Routes, st.Target, st.Routes)
			}
		}
	}
	if m.Series(mantra.AggregateTarget, mantra.MetricSessions).Len() != 4 {
		t.Error("aggregate series not maintained")
	}
	if m.Latest(mantra.AggregateTarget) == nil {
		t.Error("aggregate snapshot not stored")
	}
	if m.Log().Cycles(mantra.AggregateTarget) != 4 {
		t.Error("aggregate cycles not logged")
	}
}

func TestConcurrentCollectionMatchesSequential(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	// The same network monitored concurrently and sequentially must
	// produce identical statistics (collection itself is read-only).
	n1, m1 := newMonitoredNetwork(t)
	n2, m2 := newMonitoredNetwork(t)
	for i := 0; i < 3; i++ {
		n1.Step()
		n2.Step()
		s1, err := m1.RunCycle(n1.Now())
		if err != nil {
			t.Fatal(err)
		}
		s2, err := m2.RunCycleConcurrent(n2.Now())
		if err != nil {
			t.Fatal(err)
		}
		if len(s1) != len(s2) {
			t.Fatalf("lengths differ: %d vs %d", len(s1), len(s2))
		}
		for j := range s1 {
			if s1[j] != s2[j] {
				t.Errorf("cycle %d target %d: %+v vs %+v", i, j, s1[j], s2[j])
			}
		}
	}
}

func TestAggregationRecoversPostTransitionCoverage(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	// The paper's concluding observation: after the sparse-mode
	// transition, no single vantage tracks global usage; results must be
	// aggregated from multiple collection points. Monitor FIXW, the UCSB
	// router and a native domain border, and show the combined view sees
	// meaningfully more than FIXW alone.
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 6
	inet := topo.BuildInternet(cfg)
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	n := netsim.New(inet, wl, netsim.DefaultConfig())
	if err := n.Track("fixw", "ucsb-r1", "dom00-gw"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		n.Step()
	}
	for _, d := range n.Topo.Domains() {
		if d.Name != "ucsb" {
			n.TransitionDomain(d.Name)
		}
	}
	m := mantra.New()
	m.EnableAggregation()
	for _, name := range []string{"fixw", "ucsb-r1", "dom00-gw"} {
		r := n.Router(name)
		r.Password = "pw"
		m.AddTarget(mantra.Target{
			Name:     name,
			Dialer:   collect.PipeDialer{Router: r},
			Password: "pw",
			Prompt:   name + "> ",
		})
	}
	var fixwParts, aggParts float64
	for i := 0; i < 10; i++ {
		n.Step()
		stats, err := m.RunCycleConcurrent(n.Now())
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			switch st.Target {
			case "fixw":
				fixwParts += float64(st.Participants)
			case mantra.AggregateTarget:
				aggParts += float64(st.Participants)
			}
		}
	}
	if aggParts <= fixwParts*1.1 {
		t.Errorf("aggregate view (%0.f) does not meaningfully exceed FIXW alone (%0.f)", aggParts, fixwParts)
	}
	t.Logf("post-transition participant coverage: fixw=%.0f aggregate=%.0f (+%.0f%%)",
		fixwParts/10, aggParts/10, 100*(aggParts-fixwParts)/fixwParts)
}

func TestMonitorRouteStability(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	n, m := newMonitoredNetwork(t)
	m.EnableAggregation()
	for i := 0; i < 12; i++ {
		n.Step()
		if _, err := m.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	rs := m.RouteStability("fixw")
	if rs == nil {
		t.Fatal("no stability tracker")
	}
	if rs.Cycles() != 12 {
		t.Errorf("cycles = %d", rs.Cycles())
	}
	sum := rs.Summary()
	if sum.Prefixes < 100 {
		t.Errorf("tracked prefixes = %d", sum.Prefixes)
	}
	if sum.MeanAvailability <= 0 || sum.MeanAvailability > 1 {
		t.Errorf("availability = %f", sum.MeanAvailability)
	}
	// With the flap model on, some prefixes should have flapped.
	if sum.TotalFlaps == 0 {
		t.Log("no flaps in 12 cycles (possible at this seed)")
	}
	if m.RouteStability("ghost") != nil {
		t.Error("unknown target should be nil")
	}
	// The aggregate view is logged like a router but is synthetic: it
	// has no stability tracker.
	if m.Log().Cycles(mantra.AggregateTarget) != 12 {
		t.Fatalf("precondition: aggregate view logged %d cycles, want 12", m.Log().Cycles(mantra.AggregateTarget))
	}
	if m.RouteStability(mantra.AggregateTarget) != nil {
		t.Error("the aggregate view should have no stability tracker")
	}
	// History outlives membership: a removed target's tracker still
	// answers, and a later cycle leaves it as it was.
	want := rs.ExportState()
	if !m.RemoveTarget("fixw") {
		t.Fatal("fixw was not registered")
	}
	n.Step()
	if _, err := m.RunCycle(n.Now()); err != nil {
		t.Fatal(err)
	}
	if got := m.RouteStability("fixw"); got == nil || !reflect.DeepEqual(got.ExportState(), want) {
		t.Error("a removed target's stability tracker changed or went away")
	}
}
