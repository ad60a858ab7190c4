package addr

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		in   string
		want IP
	}{
		{"0.0.0.0", 0},
		{"255.255.255.255", 0xFFFFFFFF},
		{"224.0.0.1", AllSystems},
		{"128.111.41.2", V4(128, 111, 41, 2)},
		{"10.0.0.1", V4(10, 0, 0, 1)},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	for _, in := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "-1.2.3.4", "a.b.c.d", "01.2.3.4", "1..2.3",
		// Signed octets: strconv.Atoi took these, so a garbled dump row
		// could be logged as a real address.
		"+1.2.3.4", "-0.1.2.3", "1.2.3.+4", "1.2.3.-0"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		ip := IP(v)
		back, err := Parse(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOctets(t *testing.T) {
	a, b, c, d := V4(128, 111, 41, 2).Octets()
	if a != 128 || b != 111 || c != 41 || d != 2 {
		t.Errorf("Octets = %d.%d.%d.%d, want 128.111.41.2", a, b, c, d)
	}
}

func TestMulticastPredicates(t *testing.T) {
	cases := []struct {
		ip                       IP
		mcast, linkLocal, scoped bool
	}{
		{V4(223, 255, 255, 255), false, false, false},
		{V4(224, 0, 0, 0), true, true, false},
		{V4(224, 0, 0, 255), true, true, false},
		{V4(224, 0, 1, 0), true, false, false},
		{V4(239, 0, 0, 0), true, false, true},
		{V4(239, 255, 255, 255), true, false, true},
		{V4(240, 0, 0, 0), false, false, false},
		{V4(128, 111, 1, 1), false, false, false},
	}
	for _, c := range cases {
		if got := c.ip.IsMulticast(); got != c.mcast {
			t.Errorf("%v.IsMulticast() = %v, want %v", c.ip, got, c.mcast)
		}
		if got := c.ip.IsLinkLocalMulticast(); got != c.linkLocal {
			t.Errorf("%v.IsLinkLocalMulticast() = %v, want %v", c.ip, got, c.linkLocal)
		}
		if got := c.ip.IsAdminScopedMulticast(); got != c.scoped {
			t.Errorf("%v.IsAdminScopedMulticast() = %v, want %v", c.ip, got, c.scoped)
		}
	}
}

func TestPrefixParse(t *testing.T) {
	p := MustParsePrefix("128.111.0.0/16")
	if p.Addr != V4(128, 111, 0, 0) || p.Len != 16 {
		t.Fatalf("unexpected prefix %v", p)
	}
	if got := p.String(); got != "128.111.0.0/16" {
		t.Errorf("String = %q", got)
	}
	if p.Mask() != V4(255, 255, 0, 0) {
		t.Errorf("Mask = %v", p.Mask())
	}
}

func TestPrefixParseInvalid(t *testing.T) {
	for _, in := range []string{"128.111.0.0", "128.111.0.0/33", "128.111.0.0/-1", "128.111.0.1/16", "x/8",
		"10.0.0.0/+8", "10.0.0.0/-0", "10.0.0.0/", "+10.0.0.0/8"} {
		if _, err := ParsePrefix(in); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", in)
		}
	}
}

func TestPrefixFromMasks(t *testing.T) {
	p := PrefixFrom(V4(128, 111, 41, 77), 16)
	if p.Addr != V4(128, 111, 0, 0) {
		t.Errorf("PrefixFrom did not mask host bits: %v", p)
	}
	if PrefixFrom(V4(1, 2, 3, 4), 0).Addr != 0 {
		t.Error("PrefixFrom /0 should zero the address")
	}
	if PrefixFrom(V4(1, 2, 3, 4), 32).Addr != V4(1, 2, 3, 4) {
		t.Error("/32 should keep all bits")
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if !p.Contains(V4(10, 1, 255, 255)) || p.Contains(V4(10, 2, 0, 0)) {
		t.Error("Contains boundary wrong")
	}
	if !MustParsePrefix("0.0.0.0/0").Contains(V4(200, 1, 2, 3)) {
		t.Error("/0 should contain everything")
	}
}

func TestPrefixContainment(t *testing.T) {
	outer := MustParsePrefix("10.0.0.0/8")
	inner := MustParsePrefix("10.5.0.0/16")
	other := MustParsePrefix("11.0.0.0/8")
	if !outer.ContainsPrefix(inner) {
		t.Error("outer should contain inner")
	}
	if inner.ContainsPrefix(outer) {
		t.Error("inner must not contain outer")
	}
	if !outer.Overlaps(inner) || !inner.Overlaps(outer) {
		t.Error("overlap symmetric failure")
	}
	if outer.Overlaps(other) {
		t.Error("disjoint prefixes must not overlap")
	}
}

func TestPrefixFirstLast(t *testing.T) {
	p := MustParsePrefix("192.168.4.0/22")
	if p.First() != V4(192, 168, 4, 0) {
		t.Errorf("First = %v", p.First())
	}
	if p.Last() != V4(192, 168, 7, 255) {
		t.Errorf("Last = %v", p.Last())
	}
	if p.NumAddresses() != 1024 {
		t.Errorf("NumAddresses = %d", p.NumAddresses())
	}
}

func TestSiblingParent(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/9")
	sib := p.Sibling()
	if sib != MustParsePrefix("10.128.0.0/9") {
		t.Errorf("Sibling = %v", sib)
	}
	if sib.Sibling() != p {
		t.Error("Sibling is not an involution")
	}
	if p.Parent() != MustParsePrefix("10.0.0.0/8") {
		t.Errorf("Parent = %v", p.Parent())
	}
}

func TestSiblingPanicsOnSlashZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sibling of /0 should panic")
		}
	}()
	Prefix{}.Sibling()
}

func TestCompareOrdering(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.0.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Error("shorter prefix should order first at same address")
	}
	if a.Compare(c) != -1 || c.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("address ordering wrong")
	}
}

func TestAggregateSiblings(t *testing.T) {
	in := []Prefix{
		MustParsePrefix("10.0.0.0/9"),
		MustParsePrefix("10.128.0.0/9"),
	}
	out := Aggregate(in)
	if len(out) != 1 || out[0] != MustParsePrefix("10.0.0.0/8") {
		t.Errorf("Aggregate = %v", out)
	}
}

func TestAggregateContainedAndDuplicates(t *testing.T) {
	in := []Prefix{
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("10.5.0.0/16"),
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("192.168.0.0/16"),
	}
	out := Aggregate(in)
	if len(out) != 2 {
		t.Fatalf("Aggregate = %v", out)
	}
	if out[0] != MustParsePrefix("10.0.0.0/8") || out[1] != MustParsePrefix("192.168.0.0/16") {
		t.Errorf("Aggregate = %v", out)
	}
}

func TestAggregateCascades(t *testing.T) {
	// Four /10s collapse all the way to a /8.
	in := []Prefix{
		MustParsePrefix("10.0.0.0/10"),
		MustParsePrefix("10.64.0.0/10"),
		MustParsePrefix("10.128.0.0/10"),
		MustParsePrefix("10.192.0.0/10"),
	}
	out := Aggregate(in)
	if len(out) != 1 || out[0] != MustParsePrefix("10.0.0.0/8") {
		t.Errorf("Aggregate = %v", out)
	}
}

func TestAggregateEmpty(t *testing.T) {
	if out := Aggregate(nil); out != nil {
		t.Errorf("Aggregate(nil) = %v", out)
	}
}

func TestAggregatePreservesCoverageProperty(t *testing.T) {
	// Property: every input address is still covered, and no sibling pair
	// remains unmerged.
	f := func(seeds []uint32) bool {
		var in []Prefix
		for _, s := range seeds {
			in = append(in, PrefixFrom(IP(s), 8+int(s%17)))
		}
		out := Aggregate(in)
		for _, p := range in {
			found := false
			for _, q := range out {
				if q.ContainsPrefix(p) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		for i := 0; i+1 < len(out); i++ {
			if out[i].Len == out[i+1].Len && out[i].Len > 0 && out[i].Sibling() == out[i+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLongestMatch(t *testing.T) {
	ps := []Prefix{
		MustParsePrefix("0.0.0.0/0"),
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("10.5.0.0/16"),
	}
	if i := LongestMatch(ps, V4(10, 5, 1, 1)); i != 2 {
		t.Errorf("LongestMatch = %d, want 2", i)
	}
	if i := LongestMatch(ps, V4(10, 6, 1, 1)); i != 1 {
		t.Errorf("LongestMatch = %d, want 1", i)
	}
	if i := LongestMatch(ps, V4(11, 0, 0, 1)); i != 0 {
		t.Errorf("LongestMatch = %d, want 0", i)
	}
	if i := LongestMatch(ps[1:], V4(11, 0, 0, 1)); i != -1 {
		t.Errorf("LongestMatch no match = %d, want -1", i)
	}
}

func TestAllocatorSequential(t *testing.T) {
	a := NewAllocator(MustParsePrefix("192.168.1.0/30"))
	first := a.MustNext()
	second := a.MustNext()
	if first != V4(192, 168, 1, 1) || second != V4(192, 168, 1, 2) {
		t.Errorf("got %v, %v", first, second)
	}
	if _, err := a.Next(); err == nil {
		t.Error("pool should be exhausted (network/broadcast reserved)")
	}
	if a.Remaining() != 0 {
		t.Errorf("Remaining = %d", a.Remaining())
	}
}

func TestAllocatorRemaining(t *testing.T) {
	a := NewAllocator(MustParsePrefix("10.0.0.0/24"))
	if a.Remaining() != 254 {
		t.Errorf("Remaining = %d, want 254", a.Remaining())
	}
	a.MustNext()
	if a.Remaining() != 253 {
		t.Errorf("Remaining after one = %d, want 253", a.Remaining())
	}
}

func TestGroupAllocatorSkipsLinkLocal(t *testing.T) {
	g := NewGroupAllocator(MustParsePrefix("224.0.0.0/16"))
	first := g.MustNext()
	if first != V4(224, 0, 1, 0) {
		t.Errorf("first group = %v, want 224.0.1.0", first)
	}
	if !first.IsMulticast() {
		t.Error("allocated group not multicast")
	}
}

func TestGroupAllocatorExhaustion(t *testing.T) {
	g := NewGroupAllocator(MustParsePrefix("239.1.2.0/30"))
	for i := 0; i < 4; i++ {
		if _, err := g.Next(); err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
	}
	if _, err := g.Next(); err == nil {
		t.Error("expected exhaustion")
	}
}

func TestGroupAllocatorPanicsOnUnicast(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unicast block")
		}
	}()
	NewGroupAllocator(MustParsePrefix("10.0.0.0/8"))
}

// signed reports a numeral strconv.Atoi accepts and the parsers no longer
// do: the one sanctioned divergence from splitAtoiParse below.
func signed(p string) bool { return p != "" && (p[0] == '+' || p[0] == '-') }

// splitAtoiParse and splitAtoiParsePrefix are Parse and ParsePrefix as
// they stood before the in-place scanners, kept as the reference the
// fuzz target compares against. The only edit is the signed() test.
func splitAtoiParse(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("addr: %q is not a dotted-quad IPv4 address", s)
	}
	var ip uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || signed(p) || n < 0 || n > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("addr: invalid octet %q in %q", p, s)
		}
		ip = ip<<8 | uint32(n)
	}
	return IP(ip), nil
}

func splitAtoiParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("addr: %q is not CIDR notation", s)
	}
	ip, err := splitAtoiParse(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || signed(s[slash+1:]) || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("addr: invalid prefix length in %q", s)
	}
	if ip&maskFor(bits) != ip {
		return Prefix{}, fmt.Errorf("addr: %q has host bits set", s)
	}
	return Prefix{Addr: ip, Len: uint8(bits)}, nil
}

// FuzzParse holds the in-place scanners to the Split+Atoi parsers they
// replaced: same value, same error text, for every input but a signed
// numeral.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", ".", "...", "1.2.3.4", "255.255.255.255", "256.1.1.1", "1.2.3", "1.2.3.4.5",
		"01.2.3.4", "0.0.0.0", "00.0.0.0", "1..2.3", "1.2.3.", "1.2.3.4 ", "1.2.3.x", "1.2.3.0004",
		"99999999999999999999.1.1.1", "+1.2.3.4", "1.2.3.-0", "\xff.1.2.3", "1.2.3.4/",
		"10.0.0.0/8", "10.0.0.0/08", "10.0.0.0/000000000000000000000008", "10.0.0.0/33",
		"10.0.0.0/99999999999999999999", "10.0.0.1/8", "10.0.0.0/+8", "10.0.0.0/8/8", "0.0.0.0/0", "/8",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ip, err := Parse(s)
		wantIP, wantErr := splitAtoiParse(s)
		if ip != wantIP || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("Parse(%q) = %v, %v; reference %v, %v", s, ip, err, wantIP, wantErr)
		}
		p, err := ParsePrefix(s)
		wantP, wantErr := splitAtoiParsePrefix(s)
		if p != wantP || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("ParsePrefix(%q) = %v, %v; reference %v, %v", s, p, err, wantP, wantErr)
		}
	})
}
