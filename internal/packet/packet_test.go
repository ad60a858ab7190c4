package packet

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/addr"
)

func TestChecksumKnown(t *testing.T) {
	// RFC 1071 example words: 0x0001 0xf203 0xf4f5 0xf6f7.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %04x, want %04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xFF}) != ^uint16(0xFF00) {
		t.Error("odd-length padding wrong")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	m := &IGMP{Kind: IGMPReport, Group: addr.MustParse("224.1.2.3")}
	b := m.Marshal()
	b[5] ^= 0x01
	if _, err := UnmarshalIGMP(b); err != ErrBadChecksum {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestIGMPRoundTrip(t *testing.T) {
	cases := []*IGMP{
		{Kind: IGMPQuery, MaxResp: 10 * time.Second},
		{Kind: IGMPQuery, MaxResp: 2500 * time.Millisecond, Group: addr.MustParse("239.1.1.1")},
		{Kind: IGMPReport, Group: addr.MustParse("224.2.127.254")},
		{Kind: IGMPLeave, Group: addr.MustParse("224.2.127.254")},
	}
	for _, c := range cases {
		got, err := UnmarshalIGMP(c.Marshal())
		if err != nil {
			t.Fatalf("%v: %v", c.Kind, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("round trip %+v != %+v", got, c)
		}
	}
}

func TestIGMPMaxRespClamps(t *testing.T) {
	m := &IGMP{Kind: IGMPQuery, MaxResp: time.Hour}
	got, err := UnmarshalIGMP(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxResp != 25500*time.Millisecond {
		t.Errorf("MaxResp = %v, want clamp to 25.5s", got.MaxResp)
	}
}

func TestIGMPTruncated(t *testing.T) {
	if _, err := UnmarshalIGMP([]byte{0x16, 0, 0}); err != ErrTruncated {
		t.Errorf("err = %v", err)
	}
}

func TestIGMPKindString(t *testing.T) {
	if IGMPQuery.String() != "membership-query" || IGMPKind(99).String() != "unknown" {
		t.Error("IGMPKind.String wrong")
	}
}

func TestDVMRPProbeRoundTrip(t *testing.T) {
	p := &DVMRPProbe{GenID: 0xDEADBEEF, Neighbors: []addr.IP{
		addr.MustParse("198.32.233.1"), addr.MustParse("198.32.233.2"),
	}}
	m, err := UnmarshalDVMRP(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if m.Probe == nil || !reflect.DeepEqual(m.Probe, p) {
		t.Errorf("round trip %+v", m.Probe)
	}
}

func TestDVMRPProbeNoNeighbors(t *testing.T) {
	p := &DVMRPProbe{GenID: 7}
	m, err := UnmarshalDVMRP(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Probe.Neighbors) != 0 {
		t.Errorf("neighbors = %v", m.Probe.Neighbors)
	}
}

func TestDVMRPReportRoundTrip(t *testing.T) {
	r := &DVMRPReport{Routes: []DVMRPRoute{
		{Prefix: addr.MustParsePrefix("128.111.0.0/16"), Metric: 1},
		{Prefix: addr.MustParsePrefix("10.0.0.0/8"), Metric: 33},
		{Prefix: addr.MustParsePrefix("0.0.0.0/0"), Metric: DVMRPInfinity},
	}}
	m, err := UnmarshalDVMRP(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if m.Report == nil || !reflect.DeepEqual(m.Report, r) {
		t.Errorf("round trip %+v", m.Report)
	}
}

func TestDVMRPReportRoundTripProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		r := &DVMRPReport{}
		for _, s := range seeds {
			r.Routes = append(r.Routes, DVMRPRoute{
				Prefix: addr.PrefixFrom(addr.IP(s), int(s%33)),
				Metric: uint8(s % 64),
			})
		}
		m, err := UnmarshalDVMRP(r.Marshal())
		if err != nil {
			return false
		}
		if len(r.Routes) == 0 {
			return len(m.Report.Routes) == 0
		}
		return reflect.DeepEqual(m.Report, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDVMRPPruneRoundTrip(t *testing.T) {
	p := &DVMRPPrune{
		Source:   addr.MustParse("128.111.41.2"),
		Group:    addr.MustParse("224.2.0.1"),
		Lifetime: 7200 * time.Second,
	}
	m, err := UnmarshalDVMRP(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if m.Prune == nil || !reflect.DeepEqual(m.Prune, p) {
		t.Errorf("round trip %+v", m.Prune)
	}
}

func TestDVMRPGraftRoundTrip(t *testing.T) {
	for _, ack := range []bool{false, true} {
		g := &DVMRPGraft{
			Source: addr.MustParse("128.111.41.2"),
			Group:  addr.MustParse("224.2.0.1"),
			Ack:    ack,
		}
		m, err := UnmarshalDVMRP(g.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if m.Graft == nil || !reflect.DeepEqual(m.Graft, g) {
			t.Errorf("round trip %+v", m.Graft)
		}
	}
}

func TestDVMRPRejectsNonDVMRP(t *testing.T) {
	b := (&IGMP{Kind: IGMPReport, Group: addr.MustParse("224.1.1.1")}).Marshal()
	if _, err := UnmarshalDVMRP(b); err == nil {
		t.Error("expected type error")
	}
}

func TestDVMRPTruncatedReport(t *testing.T) {
	r := &DVMRPReport{Routes: []DVMRPRoute{{Prefix: addr.MustParsePrefix("10.0.0.0/8"), Metric: 1}}}
	b := r.Marshal()
	if _, err := UnmarshalDVMRP(b[:10]); err == nil {
		t.Error("expected truncation error")
	}
}

func TestPIMHelloRoundTrip(t *testing.T) {
	h := &PIMHello{Holdtime: 105 * time.Second, DRPriority: 7}
	m, err := UnmarshalPIM(h.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if m.Hello == nil || !reflect.DeepEqual(m.Hello, h) {
		t.Errorf("round trip %+v", m.Hello)
	}
}

func TestPIMJoinPruneRoundTrip(t *testing.T) {
	j := &PIMJoinPrune{
		Upstream: addr.MustParse("198.32.233.9"),
		Holdtime: 210 * time.Second,
		Groups: []PIMJoinPruneGroup{
			{
				Group:  addr.MustParse("224.2.0.1"),
				Joins:  []addr.IP{addr.Unspecified, addr.MustParse("128.111.41.2")},
				Prunes: []addr.IP{addr.MustParse("130.207.8.4")},
			},
			{
				Group: addr.MustParse("239.255.0.1"),
				Joins: []addr.IP{addr.MustParse("171.64.1.1")},
			},
		},
	}
	m, err := UnmarshalPIM(j.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if m.JoinPrune == nil || !reflect.DeepEqual(m.JoinPrune, j) {
		t.Errorf("round trip %+v", m.JoinPrune)
	}
}

func TestPIMRegisterRoundTrip(t *testing.T) {
	for _, null := range []bool{false, true} {
		r := &PIMRegister{
			Source: addr.MustParse("128.111.41.2"),
			Group:  addr.MustParse("224.2.0.1"),
			Null:   null,
			Bytes:  1480,
		}
		m, err := UnmarshalPIM(r.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if m.Register == nil || !reflect.DeepEqual(m.Register, r) {
			t.Errorf("round trip %+v", m.Register)
		}
	}
}

func TestPIMRegisterStopRoundTrip(t *testing.T) {
	r := &PIMRegisterStop{
		Source: addr.MustParse("128.111.41.2"),
		Group:  addr.MustParse("224.2.0.1"),
	}
	m, err := UnmarshalPIM(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if m.RegisterStop == nil || !reflect.DeepEqual(m.RegisterStop, r) {
		t.Errorf("round trip %+v", m.RegisterStop)
	}
}

func TestPIMRejectsVersion1(t *testing.T) {
	b := (&PIMHello{Holdtime: time.Minute}).Marshal()
	b[0] = 1<<4 | pimTypeHello
	finishChecksum(b, 2)
	if _, err := UnmarshalPIM(b); err == nil {
		t.Error("expected version error")
	}
}

func TestPIMChecksum(t *testing.T) {
	b := (&PIMHello{Holdtime: time.Minute}).Marshal()
	b[len(b)-1] ^= 0xFF
	if _, err := UnmarshalPIM(b); err != ErrBadChecksum {
		t.Errorf("err = %v", err)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	j := &PIMJoinPrune{
		Upstream: addr.MustParse("10.0.0.1"),
		Holdtime: time.Minute,
		Groups:   []PIMJoinPruneGroup{{Group: addr.MustParse("224.1.1.1"), Joins: []addr.IP{addr.Unspecified}}},
	}
	if !bytes.Equal(j.Marshal(), j.Marshal()) {
		t.Error("Marshal is not deterministic")
	}
}
