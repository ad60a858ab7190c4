package snmp

import (
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestOIDParseAndString(t *testing.T) {
	o := MustOID("1.3.6.1.2.1.1.1.0")
	if o.String() != "1.3.6.1.2.1.1.1.0" {
		t.Errorf("String = %q", o.String())
	}
	if _, err := ParseOID("1"); err == nil {
		t.Error("short OID accepted")
	}
	if _, err := ParseOID("1.x.3"); err == nil {
		t.Error("garbage OID accepted")
	}
}

func TestOIDCompareAndPrefix(t *testing.T) {
	a := MustOID("1.3.6.1")
	b := MustOID("1.3.6.1.2")
	c := MustOID("1.3.7")
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("prefix ordering wrong")
	}
	if a.Compare(c) != -1 || c.Compare(a) != 1 {
		t.Error("sibling ordering wrong")
	}
	if !b.HasPrefix(a) || a.HasPrefix(b) || c.HasPrefix(a) {
		t.Error("HasPrefix wrong")
	}
	d := a.Append(9, 9)
	if d.String() != "1.3.6.1.9.9" || len(a) != 4 {
		t.Error("Append mutated or wrong")
	}
}

func TestOIDEncodingRoundTrip(t *testing.T) {
	cases := []string{
		"1.3.6.1.2.1.1.1.0",
		"1.3.6.1.3.62.1.1.3.1.3.255.255.255.255.0.0.0.0",
		"0.39",
		"1.3.6.1.4.1.2021.128.300.70000",
	}
	for _, s := range cases {
		o := MustOID(s)
		enc, err := encodeOID(o)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		back, err := decodeOID(enc)
		if err != nil || back.Compare(o) != 0 {
			t.Errorf("%s round-trip -> %v (%v)", s, back, err)
		}
	}
	if _, err := encodeOID(OID{3, 1}); err == nil {
		t.Error("invalid first arc accepted")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Community: "public",
		Type:      GetNext,
		RequestID: 42,
		Bindings: []VarBind{
			{OID: MustOID("1.3.6.1.2.1.1.1.0"), Value: Value{Kind: KindNull}},
			{OID: MustOID("1.3.6.1.2.1.83.1.1.2.1.7.224.1.1.1.10.0.0.1.255.255.255.255"), Value: Counter32(1234)},
			{OID: MustOID("1.3.6.1.2.1.1.5.0"), Value: OctetString([]byte("fixw"))},
			{OID: MustOID("1.3.6.1.2.1.85.1.1.1.2.224.1.1.1.10.0.0.9"), Value: IPAddressVal([4]byte{10, 0, 0, 9})},
			{OID: MustOID("1.3.6.1.2.1.1.9.0"), Value: TimeTicks(360000)},
			{OID: MustOID("1.3.6.1.2.1.1.8.0"), Value: Integer(-5)},
		},
	}
	enc, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Errorf("round trip:\n got %+v\nwant %+v", back, m)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {0x30}, {0x30, 0x02, 0x01}, {0x99, 0x00}} {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("garbage % x accepted", b)
		}
	}
}

func TestIntegerEncodingProperty(t *testing.T) {
	f := func(v int32) bool {
		enc := appendInt(nil, tagInteger, int64(v))
		r := &reader{b: enc}
		tag, content, err := r.readTLV()
		if err != nil || tag != tagInteger {
			return false
		}
		got, err := decodeInt(content)
		return err == nil && got == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func testView() *View {
	return NewView([]VarBind{
		{OID: MustOID("1.3.6.1.2.1.1.5.0"), Value: OctetString([]byte("r1"))},
		{OID: MustOID("1.3.6.1.2.1.1.1.0"), Value: OctetString([]byte("desc"))},
		{OID: MustOID("1.3.6.1.3.62.1.1.3.1.5.10.0.0.0.255.0.0.0"), Value: Integer(3)},
	})
}

func TestAgentGetAndGetNext(t *testing.T) {
	a := NewAgent("public")
	a.SetView(testView())
	c := NewClient("public", AgentTransport(a))

	v, err := c.Get(MustOID("1.3.6.1.2.1.1.5.0"))
	if err != nil || string(v.Str) != "r1" {
		t.Errorf("Get = %v, %v", v, err)
	}
	if _, err := c.Get(MustOID("1.3.6.1.2.1.1.6.0")); err == nil {
		t.Error("missing OID returned a value")
	}
	// Walk the whole system subtree.
	vbs, err := c.Walk(MustOID("1.3.6.1.2.1.1"))
	if err != nil || len(vbs) != 2 {
		t.Errorf("Walk = %d bindings, %v", len(vbs), err)
	}
	// Walking a subtree with no content returns nothing.
	vbs, err = c.Walk(MustOID("1.3.6.1.2.1.84"))
	if err != nil || len(vbs) != 0 {
		t.Errorf("empty Walk = %d, %v", len(vbs), err)
	}
}

func TestAgentCommunityCheck(t *testing.T) {
	a := NewAgent("secret")
	a.SetView(testView())
	c := NewClient("wrong", AgentTransport(a))
	if _, err := c.Get(MustOID("1.3.6.1.2.1.1.5.0")); err == nil {
		t.Error("wrong community answered")
	}
}

func TestAgentOverUDP(t *testing.T) {
	a := NewAgent("public")
	a.SetView(testView())
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go a.ServeUDP(conn)

	c := NewClient("public", UDPTransport(conn.LocalAddr().String(), 0))
	vbs, err := c.Walk(MustOID("1.3.6.1"))
	if err != nil || len(vbs) != 3 {
		t.Errorf("UDP walk = %d bindings, %v", len(vbs), err)
	}
}

func TestViewSwap(t *testing.T) {
	a := NewAgent("public")
	a.SetView(testView())
	c := NewClient("public", AgentTransport(a))
	a.SetView(NewView([]VarBind{
		{OID: MustOID("1.3.6.1.2.1.1.5.0"), Value: OctetString([]byte("r2"))},
	}))
	v, err := c.Get(MustOID("1.3.6.1.2.1.1.5.0"))
	if err != nil || string(v.Str) != "r2" {
		t.Errorf("after swap: %v, %v", v, err)
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"42":       Integer(42),
		"hello":    OctetString([]byte("hello")),
		"10.0.0.1": IPAddressVal([4]byte{10, 0, 0, 1}),
		"null":     {Kind: KindNull},
		"1.3.6":    {Kind: KindOID, OID: MustOID("1.3.6")},
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestUDPTransportClockInjectedDeadline(t *testing.T) {
	// Regression for the PR 4 bug in UDPTransport, whose per-request I/O
	// deadline read time.Now: it is anchored on the injected clock. A clock
	// returning the present makes the round trip succeed; a clock stuck in
	// the deep past puts the deadline behind the wall clock and the same
	// request must fail immediately instead of waiting out a real timeout.
	a := NewAgent("public")
	a.SetView(testView())
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			if resp := a.Handle(buf[:n]); resp != nil {
				_, _ = pc.WriteTo(resp, from)
			}
		}
	}()

	calls := 0
	live := func() time.Time { calls++; return time.Now() }
	c := NewClient("public", UDPTransportClock(pc.LocalAddr().String(), 5*time.Second, live))
	v, err := c.Get(MustOID("1.3.6.1.2.1.1.5.0"))
	if err != nil || string(v.Str) != "r1" {
		t.Fatalf("Get over UDP = %v, %v", v, err)
	}
	if calls == 0 {
		t.Fatal("injected clock never consulted")
	}

	past := func() time.Time { return time.Unix(0, 0) }
	stale := NewClient("public", UDPTransportClock(pc.LocalAddr().String(), 5*time.Second, past))
	start := time.Now()
	if _, err := stale.Get(MustOID("1.3.6.1.2.1.1.5.0")); err == nil {
		t.Fatal("Get succeeded with a deadline in the past")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("past-clock request waited on the wall clock; deadline not taken from the injected clock")
	}
}
