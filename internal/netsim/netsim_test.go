package netsim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/forwarding"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// dvmrpInfinityForTest mirrors dvmrp.Infinity without importing the
// package into this test file's namespace twice.
const dvmrpInfinityForTest = 32

// buildNet constructs a small internet with workload, tracking FIXW and
// the UCSB routers.
func buildNet(t *testing.T, domains int) *Network {
	t.Helper()
	tcfg := topo.DefaultInternetConfig()
	tcfg.NumDomains = domains
	inet := topo.BuildInternet(tcfg)
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	n := New(inet, wl, DefaultConfig())
	if err := n.Track("fixw", "ucsb-gw", "ucsb-r1"); err != nil {
		t.Fatal(err)
	}
	return n
}

func steps(n *Network, k int) {
	for i := 0; i < k; i++ {
		n.Step()
	}
}

func TestDVMRPRoutesConverge(t *testing.T) {
	n := buildNet(t, 6)
	steps(n, 4)
	fixw := n.Inet.FIXW.ID
	count := n.DVMRP.RouteCount(fixw)
	// Total originated prefixes across 7 domains (60-240 each + ucsb 48).
	if count < 300 {
		t.Errorf("FIXW route count = %d, want hundreds", count)
	}
	ucsb := n.DVMRP.RouteCount(n.Inet.UCSB.ID)
	if ucsb < 300 {
		t.Errorf("UCSB route count = %d", ucsb)
	}
}

func TestForwardingStateAppearsAtFIXW(t *testing.T) {
	n := buildNet(t, 6)
	steps(n, 8)
	fixw := n.Router("fixw")
	if fixw.FWD.Len() == 0 {
		t.Fatal("FIXW has no forwarding state")
	}
	// Pre-transition, participants across the cloud appear as sources.
	sn := n.Workload.Snapshot()
	if fixw.FWD.Len() < sn.Participants/2 {
		t.Errorf("FIXW entries = %d vs %d participants", fixw.FWD.Len(), sn.Participants)
	}
	// Some entries carry real bandwidth.
	if fixw.FWD.TotalRateKbps() <= 0 {
		t.Error("no traffic accounted at FIXW")
	}
}

func TestUntrackedRoutersStayEmpty(t *testing.T) {
	n := buildNet(t, 4)
	steps(n, 6)
	r := n.Router("dom00-r1")
	if r == nil {
		t.Fatal("router missing")
	}
	if r.FWD.Len() != 0 {
		t.Errorf("untracked router materialized %d entries", r.FWD.Len())
	}
}

func TestTransitionRemovesFromCloudAndAddsMBGP(t *testing.T) {
	n := buildNet(t, 6)
	steps(n, 3)
	d := n.Topo.Domain("dom01")
	border := d.Border()
	preRoutes := n.DVMRP.RouteCount(n.Inet.FIXW.ID)
	n.TransitionDomain("dom01")
	steps(n, 3)
	if n.DVMRP.HasRouter(border) {
		t.Error("border still in DVMRP cloud")
	}
	if !n.MBGP.HasSpeaker(border) {
		t.Fatal("border not an MBGP speaker")
	}
	if n.MBGP.RouteCount(border) == 0 {
		t.Error("border has empty MBGP RIB")
	}
	if !n.MSDP.HasRP(border) {
		t.Error("border not an MSDP RP")
	}
	if len(n.MSDP.Peers(border)) == 0 {
		t.Error("border has no MSDP peers")
	}
	if rp, ok := n.RPs.For("dom01"); !ok || rp != border {
		t.Error("RP mapping missing")
	}
	// The DVMRP cloud lost the domain's prefixes.
	postRoutes := n.DVMRP.RouteCount(n.Inet.FIXW.ID)
	if postRoutes >= preRoutes {
		t.Errorf("FIXW routes %d -> %d after transition", preRoutes, postRoutes)
	}
	// FIXW became a border and an MBGP speaker.
	if n.Inet.FIXW.Mode != topo.ModeBorder {
		t.Error("FIXW not a border")
	}
	if !n.MBGP.HasSpeaker(n.Inet.FIXW.ID) {
		t.Error("FIXW not an MBGP speaker")
	}
}

func TestSparseModeFiltersStateAtFIXW(t *testing.T) {
	n := buildNet(t, 6)
	steps(n, 10)
	fixw := n.Router("fixw")
	pre := fixw.FWD.Len()
	// Transition every leaf domain; UCSB stays DVMRP.
	for _, d := range n.Topo.Domains() {
		if d.Name != "ucsb" {
			n.TransitionDomain(d.Name)
		}
	}
	steps(n, 10)
	post := fixw.FWD.Len()
	if post >= pre {
		t.Errorf("FIXW state did not shrink: %d -> %d", pre, post)
	}
	// Entries that remain must involve the dense world or crossing flows.
	for _, e := range fixw.FWD.Entries() {
		if e.Flags == 0 {
			t.Errorf("flagless entry %+v", e)
		}
	}
}

func TestPIMStarsAtTransitionedBorder(t *testing.T) {
	n := buildNet(t, 6)
	n.TransitionDomain("dom00")
	if err := n.Track("dom00-gw"); err != nil {
		t.Fatal(err)
	}
	steps(n, 12)
	gw := n.Router("dom00-gw")
	if gw.PIM.StarCount() == 0 {
		t.Error("no (*,G) state at transitioned border RP")
	}
}

func TestUnicastInjectionSpike(t *testing.T) {
	n := buildNet(t, 4)
	steps(n, 8) // settle past initial convergence and early flaps
	base := n.DVMRP.RouteCount(n.Inet.UCSB.ID)
	at := n.Now().Add(2 * time.Hour)
	if err := n.InjectUnicastRoutes("ucsb-gw", 500, at, 90*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := n.InjectUnicastRoutes("nope", 1, at, time.Minute); err == nil {
		t.Error("unknown router accepted")
	}
	peak := 0
	for i := 0; i < 12; i++ {
		n.Step()
		if c := n.DVMRP.RouteCount(n.Inet.UCSB.ID); c > peak {
			peak = c
		}
	}
	if peak < base+450 {
		t.Errorf("injection peak %d vs base %d", peak, base)
	}
	// After clearing, the count returns near the base (flap noise aside).
	final := n.DVMRP.RouteCount(n.Inet.UCSB.ID)
	if final > base+150 {
		t.Errorf("injected routes lingered: %d vs base %d", final, base)
	}
}

func TestRouteCountsFluctuate(t *testing.T) {
	n := buildNet(t, 8)
	steps(n, 2)
	fixw := n.Inet.FIXW.ID
	seen := make(map[int]bool)
	for i := 0; i < 60; i++ {
		n.Step()
		seen[n.DVMRP.RouteCount(fixw)] = true
	}
	if len(seen) < 3 {
		t.Errorf("route count too stable over 60 cycles: %v distinct", len(seen))
	}
}

func TestViewsDiverge(t *testing.T) {
	// The UCSB and FIXW route tables should differ at least sometimes
	// (lost updates, flap timing) — the paper's inconsistency finding.
	n := buildNet(t, 8)
	steps(n, 2)
	diffs := 0
	for i := 0; i < 200; i++ {
		n.Step()
		if n.DVMRP.RouteCount(n.Inet.FIXW.ID) != n.DVMRP.RouteCount(n.Inet.UCSB.ID) {
			diffs++
		}
	}
	if diffs == 0 {
		t.Error("views never diverged over 200 cycles")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []int {
		tcfg := topo.DefaultInternetConfig()
		tcfg.NumDomains = 4
		inet := topo.BuildInternet(tcfg)
		wl := workload.New(workload.DefaultConfig(), inet.Topo)
		n := New(inet, wl, DefaultConfig())
		_ = n.Track("fixw")
		var counts []int
		for i := 0; i < 20; i++ {
			n.Step()
			counts = append(counts, n.DVMRP.RouteCount(inet.FIXW.ID), n.Router("fixw").FWD.Len())
		}
		return counts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestClockAdvancesPerStep(t *testing.T) {
	n := buildNet(t, 4)
	start := n.Now()
	steps(n, 5)
	if got := n.Now().Sub(start); got != 5*30*time.Minute {
		t.Errorf("clock advanced %v", got)
	}
	if n.Cycles() != 5 {
		t.Errorf("Cycles = %d", n.Cycles())
	}
}

func TestScheduledTransitionFires(t *testing.T) {
	n := buildNet(t, 4)
	n.ScheduleTransition("dom02", sim.Epoch.Add(3*time.Hour))
	steps(n, 4)
	if n.Topo.Domain("dom02").Mode == topo.ModeDVMRP {
		t.Skip("transition not yet fired") // 4 steps = 2h — should not fire
	}
	steps(n, 4)
	if n.Topo.Domain("dom02").Mode != topo.ModePIMSM {
		t.Error("scheduled transition did not fire")
	}
}

func TestIGMPPopulatedAtTrackedEdges(t *testing.T) {
	n := buildNet(t, 6)
	if err := n.Track("ucsb-r1", "ucsb-r2"); err != nil {
		t.Fatal(err)
	}
	steps(n, 20)
	total := 0
	for _, name := range []string{"ucsb-gw", "ucsb-r1", "ucsb-r2"} {
		total += len(n.Router(name).IGMP.Groups())
	}
	if total == 0 {
		t.Error("no IGMP membership at UCSB edges after 20 cycles")
	}
}

func TestDenseEntriesHaveRPFIif(t *testing.T) {
	n := buildNet(t, 4)
	steps(n, 6)
	fixw := n.Router("fixw")
	sawUpstream := false
	for _, e := range fixw.FWD.Entries() {
		if !e.Flags.Has(forwarding.FlagDense) {
			continue
		}
		if e.IIF >= 0 {
			sawUpstream = true
			l := n.Topo.Link(e.IIF)
			if l == nil || !l.Has(fixw.Spec.ID) {
				t.Fatalf("entry IIF %d is not a link of FIXW", e.IIF)
			}
		}
	}
	if !sawUpstream {
		t.Error("no dense entry with an upstream interface at FIXW")
	}
}

func TestTrackUnknownRouterErrors(t *testing.T) {
	n := buildNet(t, 4)
	if err := n.Track("missing"); err == nil {
		t.Error("Track accepted unknown router")
	}
}

func TestWalkUpUnreachable(t *testing.T) {
	tree := map[topo.NodeID]*topo.Link{}
	if walkUp(tree, 5, func(topo.NodeID, *topo.Link, *topo.Link) {}) {
		t.Error("walkUp should fail for absent leaf")
	}
}

func TestPIMDMInteriorRouters(t *testing.T) {
	// Find a PIM-DM domain in the default layout and track its interior.
	tcfg := topo.DefaultInternetConfig()
	tcfg.NumDomains = 8
	inet := topo.BuildInternet(tcfg)
	var pimdm *topo.Router
	for _, r := range inet.Topo.Routers() {
		if r.Mode == topo.ModePIMDM {
			pimdm = r
			break
		}
	}
	if pimdm == nil {
		t.Fatal("no PIM-DM interior router in default layout")
	}
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	n := New(inet, wl, DefaultConfig())
	n.TrackIDs(pimdm.ID)
	if err := n.Track("fixw"); err != nil {
		t.Fatal(err)
	}
	steps(n, 10)

	rt := n.RouterByID(pimdm.ID)
	// PIM-DM routers flood data: dense forwarding state appears.
	if rt.FWD.Len() == 0 {
		t.Error("PIM-DM interior router has no forwarding state")
	}
	for _, e := range rt.FWD.Entries() {
		if !e.Flags.Has(forwarding.FlagDense) {
			t.Fatalf("non-dense entry at PIM-DM router: %+v", e)
		}
	}
	// But they run no DVMRP: the route table is empty — the era's
	// monitoring blind spot.
	if n.DVMRP.HasRouter(pimdm.ID) {
		t.Error("PIM-DM router joined the DVMRP cloud")
	}
	out := rt.Execute("show ip dvmrp route")
	if !strings.Contains(out, "- 0 entries") {
		t.Errorf("PIM-DM router served DVMRP routes:\n%.80s", out)
	}
	// Hosts behind PIM-DM subnets are still reachable (the border
	// originates their prefixes), so sessions they join appear at FIXW.
	if len(pimdm.LeafPrefixes) > 0 {
		host := pimdm.LeafPrefixes[0].First() + 10
		if inet.Topo.EdgeRouterFor(host) != pimdm {
			t.Error("host not behind the PIM-DM router")
		}
		if r, ok := n.DVMRP.Lookup(inet.FIXW.ID, host); !ok {
			t.Error("FIXW has no route to PIM-DM subnet host")
		} else if r.Metric >= dvmrpInfinityForTest {
			t.Errorf("route metric %d unusable", r.Metric)
		}
	}
}

func TestTrafficAccountingBounded(t *testing.T) {
	// Conservation: a router never accounts more bandwidth than the
	// workload sources in total (each source contributes at most once
	// per router), and FIXW carries real traffic pre-transition.
	n := buildNet(t, 6)
	steps(n, 10)
	var totalWorkload float64
	for _, s := range n.Workload.Sessions() {
		for _, m := range s.MemberList() {
			totalWorkload += m.Rate()
		}
	}
	for _, name := range []string{"fixw", "ucsb-gw", "ucsb-r1"} {
		got := n.Router(name).FWD.TotalRateKbps()
		// EWMA smoothing can briefly overshoot a falling instantaneous
		// sum; allow slack.
		if got > totalWorkload*1.5 {
			t.Errorf("%s accounts %.0f kbps > workload total %.0f", name, got, totalWorkload)
		}
	}
	if n.Router("fixw").FWD.TotalRateKbps() <= 0 {
		t.Error("FIXW carries no traffic")
	}
}

func TestEntryRatesMatchSourceRates(t *testing.T) {
	// Each (S,G) entry's rate at FIXW approximates its source's rate
	// when the flow crosses FIXW (within EWMA smoothing tolerance).
	n := buildNet(t, 4)
	steps(n, 10)
	fixw := n.Router("fixw")
	checked := 0
	for _, s := range n.Workload.Sessions() {
		for _, m := range s.MemberList() {
			e := fixw.FWD.Get(forwarding.Key{Source: m.Host, Group: s.Group})
			if e == nil || e.RateKbps == 0 {
				continue
			}
			if e.RateKbps > m.Rate()*2+1 {
				t.Errorf("entry (%v,%v) rate %.1f exceeds source rate %.1f",
					m.Host, s.Group, e.RateKbps, m.Rate())
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no entries with traffic to check")
	}
}

// TestTwinTranscriptsRepeat builds two networks from one configuration,
// with every domain but ucsb running native multicast so that DVMRP,
// PIM, MSDP and MBGP all hold state, and after every step requires
// every router to print byte for byte what its twin prints for every
// CLI table, and the MSDP caches and both meshes' counters to match.
// The protocol engines keep their state in maps; a table printed in map
// order, or a tick that visits routers or peers in map order and so
// changes what they learn from whom, makes the twins differ.
func TestTwinTranscriptsRepeat(t *testing.T) {
	commands := []string{
		"show ip dvmrp route", "show ip dvmrp neighbor", "show ip mroute", "show ip igmp groups",
		"show ip pim group", "show ip pim neighbor", "show ip msdp sa-cache", "show ip mbgp",
	}
	a, b := buildNet(t, 4), buildNet(t, 4)
	for _, n := range []*Network{a, b} {
		for _, d := range n.Topo.Domains() {
			if d.Name != "ucsb" {
				n.TransitionDomain(d.Name)
			}
		}
	}
	for step := 0; step < 8; step++ {
		a.Step()
		b.Step()
		for _, r := range a.Topo.Routers() {
			for _, cmd := range commands {
				if x, y := a.Router(r.Name).Execute(cmd), b.Router(r.Name).Execute(cmd); x != y {
					t.Fatalf("step %d: %s %q differs between twins:\n%s\nvs\n%s", step, r.Name, cmd, x, y)
				}
			}
			if x, y := a.MSDP.Cache(r.ID), b.MSDP.Cache(r.ID); !reflect.DeepEqual(x, y) {
				t.Fatalf("step %d: %s's SA cache differs between twins:\n%+v\nvs\n%+v", step, r.Name, x, y)
			}
		}
		if a.MBGP.Stats() != b.MBGP.Stats() || a.MSDP.Stats() != b.MSDP.Stats() {
			t.Fatalf("step %d: mesh counters differ between twins: %+v %+v vs %+v %+v",
				step, a.MBGP.Stats(), a.MSDP.Stats(), b.MBGP.Stats(), b.MSDP.Stats())
		}
	}
}
