package tables_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core/collect"
	"repro/internal/core/tables"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// one parses a single-dump capture of command.
func one(command, raw string) (*tables.Snapshot, error) {
	return tables.BuildSnapshot([]collect.Dump{{Target: "r", Command: command, Raw: raw, At: sim.Epoch}})
}

func TestParseDVMRPRoutes(t *testing.T) {
	raw := `DVMRP Routing Table - 2 entries
Origin-Subnet       From-Gateway     Metric  Uptime
128.111.0.0/16      198.32.255.3     3       12:30:00
10.0.0.0/8          local            0       100:00:05
`
	sn, err := one("show ip dvmrp route", raw)
	if err != nil {
		t.Fatal(err)
	}
	rt := sn.Routes
	if len(rt) != 2 {
		t.Fatalf("rows = %d", len(rt))
	}
	if rt[0].Prefix != addr.MustParsePrefix("128.111.0.0/16") || rt[0].Metric != 3 {
		t.Errorf("row0 = %+v", rt[0])
	}
	if rt[0].Uptime != 12*time.Hour+30*time.Minute {
		t.Errorf("uptime = %v", rt[0].Uptime)
	}
	if !rt[1].Local || rt[1].Uptime != 100*time.Hour+5*time.Second {
		t.Errorf("row1 = %+v", rt[1])
	}
}

func TestParseDVMRPRoutesMalformed(t *testing.T) {
	for _, raw := range []string{
		"1.2.3.4/8 gw x 0:00:00",        // bad metric
		"1.2.3.4/8 gw 1 xx",             // bad uptime
		"1.2.3.4/8 gw 1",                // short row
		"1.2.3.300/8 gw 1 0:00:00",      // bad prefix
		"1.0.0.0/8 999.1.1.1 1 0:00:00", // bad gateway
		// Signed numerals: strconv.Atoi took these, so a garbled row
		// could be logged as a real route.
		"1.0.0.0/8 1.1.1.1 1 0:+5:07",  // signed uptime part
		"1.0.0.0/8 1.1.1.1 1 -0:05:07", // signed hours
		"1.0.0.0/+8 1.1.1.1 1 0:05:07", // signed prefix length
		"1.0.0.0/8 +1.1.1.1 1 0:05:07", // signed octet
	} {
		if _, err := one("show ip dvmrp route", raw); err == nil {
			t.Errorf("parse of %q succeeded", raw)
		}
	}
}

func TestParseMroute(t *testing.T) {
	raw := `IP Multicast Forwarding Table - 2 entries
Source           Group            Flags  IIF  OIFs           Kbps      Pkts        Uptime
128.111.41.2     224.2.0.1        DP     12   -              0.0       17          1:00:00
130.207.8.4      224.2.0.1        ST     3    4,7            64.5      12345       0:30:00
`
	sn, err := one("show ip mroute", raw)
	if err != nil {
		t.Fatal(err)
	}
	pt := sn.Pairs
	if len(pt) != 2 {
		t.Fatalf("rows = %d", len(pt))
	}
	if pt[0].Flags != "DP" || pt[0].RateKbps != 0 || pt[0].Packets != 17 {
		t.Errorf("row0 = %+v", pt[0])
	}
	if pt[1].RateKbps != 64.5 || pt[1].Uptime != 30*time.Minute {
		t.Errorf("row1 = %+v", pt[1])
	}
}

func TestParseUptimeValidation(t *testing.T) {
	raw := "1.1.1.1 224.1.1.1 D 0 - 1.0 5 0:99:00"
	if _, err := one("show ip mroute", raw); err == nil {
		t.Error("minutes > 59 accepted")
	}
}

func TestParseIGMPAndMSDPAndMBGP(t *testing.T) {
	sn, err := one("show ip igmp groups", `IGMP Group Membership - 1 groups, 1 members
Group            Host             Uptime
224.2.0.1        128.111.41.10    0:30:00`)
	if err != nil || len(sn.IGMP) != 1 || sn.IGMP[0].Host != addr.MustParse("128.111.41.10") {
		t.Errorf("igmp = %+v err=%v", sn, err)
	}
	sn, err = one("show ip msdp sa-cache", `MSDP Source-Active Cache - 1 entries
Source           Group            Origin-RP        Uptime
128.111.41.2     224.2.0.1        198.32.255.3     1:00:00`)
	if err != nil || len(sn.SAs) != 1 || sn.SAs[0].OriginRP != addr.MustParse("198.32.255.3") {
		t.Errorf("msdp = %+v err=%v", sn, err)
	}
	sn, err = one("show ip mbgp", `MBGP Table - 2 entries
Network             Next-Hop         Uptime    Path
128.111.0.0/16      198.32.1.2       1:00:00   7001 131
10.0.0.0/8          local            2:00:00   64001`)
	if err != nil || len(sn.MBGP) != 2 {
		t.Fatalf("mbgp = %+v err=%v", sn, err)
	}
	mb := sn.MBGP
	if len(mb[0].ASPath) != 2 || mb[0].ASPath[1] != 131 {
		t.Errorf("aspath = %v", mb[0].ASPath)
	}
	if !mb[1].Local {
		t.Error("local flag lost")
	}
}

func TestDeriveParticipants(t *testing.T) {
	pt := tables.PairTable{
		{Source: addr.MustParse("1.1.1.1"), Group: addr.MustParse("224.0.1.1"), RateKbps: 0.5, Uptime: time.Hour},
		{Source: addr.MustParse("1.1.1.1"), Group: addr.MustParse("224.0.1.2"), RateKbps: 64, Uptime: 2 * time.Hour},
		{Source: addr.MustParse("2.2.2.2"), Group: addr.MustParse("224.0.1.1"), RateKbps: 1.5, Uptime: time.Minute},
	}
	parts := pt.Participants()
	if len(parts) != 2 {
		t.Fatalf("participants = %+v", parts)
	}
	if parts[0].Host != addr.MustParse("1.1.1.1") || parts[0].Groups != 2 ||
		parts[0].MaxRateKbps != 64 || parts[0].Uptime != 2*time.Hour {
		t.Errorf("p0 = %+v", parts[0])
	}
}

func TestDeriveSessions(t *testing.T) {
	pt := tables.PairTable{
		{Source: addr.MustParse("1.1.1.1"), Group: addr.MustParse("224.0.1.1"), Flags: "D", RateKbps: 0.5, Packets: 10, Uptime: time.Hour},
		{Source: addr.MustParse("2.2.2.2"), Group: addr.MustParse("224.0.1.1"), Flags: "D", RateKbps: 64, Packets: 90, Uptime: 2 * time.Hour},
		{Source: addr.MustParse("3.3.3.3"), Group: addr.MustParse("224.0.1.2"), Flags: "ST", RateKbps: 8, Packets: 5},
	}
	ss := pt.Sessions()
	if len(ss) != 2 {
		t.Fatalf("sessions = %+v", ss)
	}
	if ss[0].Density != 2 || ss[0].TotalRateKbps != 64.5 || ss[0].Packets != 100 {
		t.Errorf("s0 = %+v", ss[0])
	}
	if ss[0].Protocol != "dvmrp" || ss[1].Protocol != "pim" {
		t.Errorf("protocols = %q, %q", ss[0].Protocol, ss[1].Protocol)
	}
	if ss[0].Uptime != 2*time.Hour {
		t.Errorf("uptime = %v", ss[0].Uptime)
	}
}

func TestDeriveSessionsMixedProtocol(t *testing.T) {
	pt := tables.PairTable{
		{Source: addr.MustParse("1.1.1.1"), Group: addr.MustParse("224.0.1.1"), Flags: "D"},
		{Source: addr.MustParse("2.2.2.2"), Group: addr.MustParse("224.0.1.1"), Flags: "S"},
	}
	if ss := pt.Sessions(); ss[0].Protocol != "mixed" {
		t.Errorf("protocol = %q", ss[0].Protocol)
	}
}

func TestBuildSnapshotEndToEnd(t *testing.T) {
	// Collect real dumps from a simulated router and normalize them.
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 3
	inet := topo.BuildInternet(cfg)
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	n := netsim.New(inet, wl, netsim.DefaultConfig())
	if err := n.Track("fixw"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		n.Step()
	}
	tgt := collect.Target{
		Name:   "fixw",
		Dialer: collect.PipeDialer{Router: n.Router("fixw")},
		Prompt: "fixw> ",
	}
	dumps, err := collect.CollectAll(tgt, collect.StandardCommands, n.Now())
	if err != nil {
		t.Fatal(err)
	}
	sn, err := tables.BuildSnapshot(dumps)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Target != "fixw" || !sn.At.Equal(n.Now()) {
		t.Errorf("snapshot meta: %+v", sn)
	}
	if len(sn.Routes) < 100 {
		t.Errorf("routes = %d", len(sn.Routes))
	}
	if len(sn.Pairs) == 0 {
		t.Error("no pairs parsed")
	}
	// Round-trip integrity: parsed route count equals the router's.
	if len(sn.Routes) != n.DVMRP.RouteCount(inet.FIXW.ID) {
		t.Errorf("parsed %d routes, router holds %d", len(sn.Routes), n.DVMRP.RouteCount(inet.FIXW.ID))
	}
	if n.Router("fixw").FWD.Len() != len(sn.Pairs) {
		t.Errorf("parsed %d pairs, router holds %d", len(sn.Pairs), n.Router("fixw").FWD.Len())
	}
	// Derivations behave on real data.
	parts := sn.Pairs.Participants()
	sess := sn.Pairs.Sessions()
	if len(parts) == 0 || len(sess) == 0 {
		t.Error("derivations empty")
	}
	total := 0
	for _, s := range sess {
		total += s.Density
	}
	if total != len(sn.Pairs) {
		t.Errorf("density sum %d != pairs %d", total, len(sn.Pairs))
	}
}

func TestBuildSnapshotErrors(t *testing.T) {
	if _, err := tables.BuildSnapshot(nil); err == nil {
		t.Error("empty dumps accepted")
	}
	mixed := []collect.Dump{
		{Target: "a", Command: "show ip mroute", At: sim.Epoch},
		{Target: "b", Command: "show ip mroute", At: sim.Epoch},
	}
	if _, err := tables.BuildSnapshot(mixed); err == nil || !strings.Contains(err.Error(), "mixed targets") {
		t.Errorf("mixed targets: %v", err)
	}
	bad := []collect.Dump{{Target: "a", Command: "show ip mroute", Raw: "not a table row here x y"}}
	if _, err := tables.BuildSnapshot(bad); err == nil {
		t.Error("malformed dump accepted")
	}
	unknown := []collect.Dump{{Target: "a", Command: "show clock", Raw: "whatever"}}
	if _, err := tables.BuildSnapshot(unknown); err != nil {
		t.Errorf("unknown command should be skipped: %v", err)
	}
}
