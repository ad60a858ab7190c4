package tables_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/addr"
	"repro/internal/core/collect"
	"repro/internal/core/tables"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/testfault"
	"repro/internal/topo"
	"repro/internal/workload"
)

// one parses a single-dump capture of command.
func one(command, raw string) (*tables.Snapshot, error) {
	return tables.BuildSnapshot([]collect.Dump{{Target: "r", Command: command, Raw: raw, At: sim.Epoch}})
}

func TestParseDVMRPRoutes(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
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
	if up := time.Duration(sn.At.UnixNano() - rt[0].Since); up != 12*time.Hour+30*time.Minute {
		t.Errorf("uptime = %v", up)
	}
	if !rt[1].Local || time.Duration(sn.At.UnixNano()-rt[1].Since) != 100*time.Hour+5*time.Second {
		t.Errorf("row1 = %+v", rt[1])
	}
}

func TestParseDVMRPRoutesMalformed(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
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
	testfault.Deadline(t, testfault.Limit)
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
	if pt[1].RateKbps != 64.5 || time.Duration(sn.At.UnixNano()-pt[1].Since) != 30*time.Minute {
		t.Errorf("row1 = %+v", pt[1])
	}
}

// TestParseMrouteRejectsNonFiniteRate: strconv.ParseFloat reads NaN,
// Inf and infinity, and one such row would poison bandwidth_kbps for
// good, so the parser names each an unparsable rate.
func TestParseMrouteRejectsNonFiniteRate(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	for _, rate := range []string{"NaN", "nan", "Inf", "+Inf", "-inf", "infinity", "-Infinity", "1e400"} {
		raw := "1.1.1.1 224.1.1.1 D 0 - " + rate + " 5 0:05:00"
		_, err := one("show ip mroute", raw)
		if want := fmt.Sprintf("tables: mroute rate %q", rate); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("rate %s: err = %v, want %s", rate, err, want)
		}
	}
}

// TestBuildSnapshotRejectsRepeatedKeys: a route table that lists a
// prefix twice, or a pair table that lists an (S,G) twice, does not
// parse, whether the rows are adjacent or, in a table out of key order,
// apart; the error names the target, the command and the key. (Kept, a
// repeated (S,G) counted twice in a session's density and a repeated
// prefix twice in the route count, where a recovery, replaying the
// logger's one row per key, counted once.)
func TestBuildSnapshotRejectsRepeatedKeys(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	const (
		r1, r2 = "10.0.0.0/8 local 0 0:00:05\n", "128.111.0.0/16 198.32.255.3 3 12:30:00\n"
		p1, p2 = "128.111.41.2 224.2.0.1 DP 12 - 0.0 17 1:00:00\n", "10.1.1.1 224.2.0.1 DP 12 - 0.0 17 1:00:00\n"
	)
	for _, c := range []struct{ command, raw, want string }{
		{"show ip dvmrp route", r1 + r1, `tables: r "show ip dvmrp route": tables: dvmrp prefix 10.0.0.0/8 listed twice`},
		{"show ip dvmrp route", r2 + r1 + r2, `tables: r "show ip dvmrp route": tables: dvmrp prefix 128.111.0.0/16 listed twice`},
		{"show ip mroute", p1 + p1, `tables: r "show ip mroute": tables: mroute (S,G) (128.111.41.2, 224.2.0.1) listed twice`},
		{"show ip mroute", p1 + p2 + p1, `tables: r "show ip mroute": tables: mroute (S,G) (128.111.41.2, 224.2.0.1) listed twice`},
	} {
		sn, err := one(c.command, c.raw)
		if err == nil || err.Error() != c.want {
			t.Errorf("%q: snapshot %+v, error %v; want error %s", c.raw, sn, err, c.want)
		}
	}
	// One row a key, in or out of order, still parses.
	for _, c := range [][2]string{{"show ip dvmrp route", r2 + r1}, {"show ip mroute", p1 + p2}, {"show ip mroute", p2 + p1}} {
		if _, err := one(c[0], c[1]); err != nil {
			t.Errorf("%q: %v", c[1], err)
		}
	}
}

func TestParseUptimeValidation(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	raw := "1.1.1.1 224.1.1.1 D 0 - 1.0 5 0:99:00"
	if _, err := one("show ip mroute", raw); err == nil {
		t.Error("minutes > 59 accepted")
	}
}

func TestParseIGMPAndMSDPAndMBGP(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
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

// ago is the Since of state that is up for d at sim.Epoch.
func ago(d time.Duration) int64 { return sim.Epoch.Add(-d).UnixNano() }

func TestDeriveParticipants(t *testing.T) {
	pt := tables.PairTable{
		{Source: addr.MustParse("1.1.1.1"), Group: addr.MustParse("224.0.1.1"), RateKbps: 0.5, Since: ago(time.Hour)},
		{Source: addr.MustParse("1.1.1.1"), Group: addr.MustParse("224.0.1.2"), RateKbps: 64, Since: ago(2 * time.Hour)},
		{Source: addr.MustParse("2.2.2.2"), Group: addr.MustParse("224.0.1.1"), RateKbps: 1.5, Since: ago(time.Minute)},
	}
	parts := pt.Participants()
	if len(parts) != 2 {
		t.Fatalf("participants = %+v", parts)
	}
	if parts[0].Host != addr.MustParse("1.1.1.1") || parts[0].Groups != 2 ||
		parts[0].MaxRateKbps != 64 || parts[0].Since != ago(2*time.Hour) {
		t.Errorf("p0 = %+v", parts[0])
	}
}

func TestDeriveSessions(t *testing.T) {
	pt := tables.PairTable{
		{Source: addr.MustParse("1.1.1.1"), Group: addr.MustParse("224.0.1.1"), Flags: "D", RateKbps: 0.5, Packets: 10, Since: ago(time.Hour)},
		{Source: addr.MustParse("2.2.2.2"), Group: addr.MustParse("224.0.1.1"), Flags: "D", RateKbps: 64, Packets: 90, Since: ago(2 * time.Hour)},
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
	if ss[0].Since != ago(2*time.Hour) {
		t.Errorf("since = %d", ss[0].Since)
	}
}

// TestDerivedTablesInAddressOrder holds Sessions and Participants to
// ascending group and source order, call after call. The pair table
// names groups in descending order and each group's sources in another
// rotation, so neither first-seen order nor a map's iteration order
// passes.
func TestDerivedTablesInAddressOrder(t *testing.T) {
	var pt tables.PairTable
	for g := 8; g >= 1; g-- {
		for i := 0; i < 8; i++ {
			src := 8 - (g+i)%8
			pt = append(pt, tables.PairEntry{Source: addr.V4(10, 0, 0, byte(src)), Group: addr.V4(224, 0, 1, byte(g)), Flags: "D"})
		}
	}
	for call := 0; call < 20; call++ {
		ss, ps := pt.Sessions(), pt.Participants()
		if len(ss) != 8 || len(ps) != 8 {
			t.Fatalf("%d sessions and %d participants, want 8 of each", len(ss), len(ps))
		}
		for i := range ss {
			if ss[i].Group != addr.V4(224, 0, 1, byte(i+1)) || ps[i].Host != addr.V4(10, 0, 0, byte(i+1)) {
				t.Fatalf("call %d: sessions %v and participants %v out of address order", call, ss, ps)
			}
		}
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
	testfault.Deadline(t, testfault.Limit)
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
	testfault.Deadline(t, testfault.Limit)
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

// pointers lists the fields of t, by path, that hold a pointer the
// garbage collector follows: pointers, strings, slices, maps, channels,
// functions and interfaces, in nested structs and arrays too.
func pointers(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			out = append(out, pointers(t.Field(i).Type, strings.TrimPrefix(path+"."+t.Field(i).Name, "."))...)
		}
		return out
	case reflect.Array:
		return pointers(t.Elem(), path+"[]")
	case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.UnsafePointer:
		return []string{path}
	}
	return nil
}

// TestRowLayout pins the two row types every cycle allocates by the
// thousand: a route row in 32 bytes with no pointer, so a route table is
// nothing the collector scans, and a pair row in 48 bytes whose one
// pointer is its interned Flags. A field that moves every cycle, or a
// time.Time and its location pointer, breaks it.
func TestRowLayout(t *testing.T) {
	for _, c := range []struct {
		row        any
		size, want uintptr
		pointers   []string
	}{
		{tables.RouteEntry{}, unsafe.Sizeof(tables.RouteEntry{}), 32, nil},
		{tables.PairEntry{}, unsafe.Sizeof(tables.PairEntry{}), 48, []string{"Flags"}},
	} {
		rt := reflect.TypeOf(c.row)
		if got := pointers(rt, ""); c.size != c.want || !slices.Equal(got, c.pointers) {
			t.Errorf("%v is %d bytes with pointers %q; want %d bytes with pointers %q: a row holds its stable identity only (DESIGN.md §7)",
				rt, c.size, got, c.want, c.pointers)
		}
	}
}
