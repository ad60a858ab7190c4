package snmp_test

import (
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/netsim"
	"repro/internal/snmp"
	"repro/internal/topo"
	"repro/internal/workload"
)

// collectNetwork is a pre-transition network that tracks ucsb-gw, so the
// gateway holds a forwarding cache for the ipMRouteTable walk to read.
func collectNetwork(t *testing.T) *netsim.Network {
	t.Helper()
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 3
	inet := topo.BuildInternet(cfg)
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	n := netsim.New(inet, wl, netsim.DefaultConfig())
	if err := n.Track("fixw", "ucsb-gw"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		n.Step()
	}
	return n
}

// within reports whether an uptime read back from TimeTicks is d
// truncated to the MIB's 10 ms resolution.
func within(got, d time.Duration) bool {
	return got <= d && d-got < 10*time.Millisecond
}

func TestCollectSNMPMatchesRouterState(t *testing.T) {
	n := collectNetwork(t)
	r := n.Router("ucsb-gw")
	now := n.Now()
	agent := snmp.NewAgent("public")
	agent.SetView(snmp.BuildView(r, now))
	c := snmp.NewClient("public", snmp.AgentTransport(agent))

	tbls, err := snmp.CollectSNMP(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbls.RouteRows) == 0 || len(tbls.PairRows) == 0 {
		t.Fatalf("snmp walk read %d routes and %d pairs; the fixture must give ucsb-gw both",
			len(tbls.RouteRows), len(tbls.PairRows))
	}
	if len(tbls.RouteRows) != n.DVMRP.RouteCount(r.Spec.ID) {
		t.Errorf("snmp routes = %d, router holds %d", len(tbls.RouteRows), n.DVMRP.RouteCount(r.Spec.ID))
	}
	if len(tbls.PairRows) != r.FWD.Len() {
		t.Errorf("snmp pairs = %d, router holds %d", len(tbls.PairRows), r.FWD.Len())
	}
	// Every route comes back under its own prefix (the mask decodes to
	// its length) with its metric and uptime.
	for _, rt := range n.DVMRP.Table(r.Spec.ID) {
		row, ok := tbls.RouteRows[rt.Prefix]
		if !ok {
			t.Fatalf("route %v missing from SNMP view", rt.Prefix)
		}
		if row.Metric != rt.Metric {
			t.Errorf("route %v metric %d != %d", rt.Prefix, row.Metric, rt.Metric)
		}
		if !within(row.Uptime, now.Sub(rt.Since)) {
			t.Errorf("route %v uptime %v, router says %v", rt.Prefix, row.Uptime, now.Sub(rt.Since))
		}
	}
	// Every forwarding entry comes back with its uptime and counters.
	for _, e := range r.FWD.Entries() {
		row, ok := tbls.PairRows[snmp.SNMPPairKey{Source: e.Key.Source, Group: e.Key.Group}]
		if !ok {
			t.Fatalf("pair %v missing from SNMP view", e.Key)
		}
		if row.Packets != uint64(uint32(e.Packets)) || row.Octets != uint64(uint32(e.Bytes)) {
			t.Errorf("pair %v counters %d/%d, router holds %d/%d", e.Key, row.Packets, row.Octets, e.Packets, e.Bytes)
		}
		if !within(row.Uptime, now.Sub(e.Created)) {
			t.Errorf("pair %v uptime %v, router says %v", e.Key, row.Uptime, now.Sub(e.Created))
		}
	}
}

func TestCollectSNMPAgainstCLI(t *testing.T) {
	// Both collection paths must agree on the route count; only the CLI
	// path carries protocol flags and the newer protocols' state.
	n := collectNetwork(t)
	r := n.Router("fixw")
	r.Password = ""

	agent := snmp.NewAgent("public")
	agent.SetView(snmp.BuildView(r, n.Now()))
	c := snmp.NewClient("public", snmp.AgentTransport(agent))
	viaSNMP, err := snmp.CollectSNMP(c)
	if err != nil {
		t.Fatal(err)
	}

	tgt := collect.Target{Name: "fixw", Dialer: collect.PipeDialer{Router: r}, Prompt: "fixw> "}
	dumps, err := collect.CollectAll(tgt, []string{"show ip dvmrp route"}, n.Now())
	if err != nil {
		t.Fatal(err)
	}
	cliLines := collect.Preprocess(dumps[0].Raw)
	cliRoutes := len(cliLines) - 2 // header rows
	if cliRoutes != len(viaSNMP.RouteRows) {
		t.Errorf("CLI sees %d routes, SNMP sees %d", cliRoutes, len(viaSNMP.RouteRows))
	}
}
