// Package addr provides compact IPv4 address and prefix types used
// throughout the simulated multicast infrastructure.
//
// Addresses are value types backed by uint32 so they are cheap to copy,
// hashable as map keys, and totally ordered. The package also provides
// multicast-specific predicates (group ranges, administrative scoping)
// and prefix aggregation used by the routing protocol implementations.
package addr

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// IP is an IPv4 address stored in host byte order.
// The zero value is the unspecified address 0.0.0.0.
type IP uint32

// Well-known addresses and range bounds.
const (
	// Unspecified is 0.0.0.0.
	Unspecified IP = 0
	// MulticastBase is 224.0.0.0, the lowest class-D address.
	MulticastBase IP = 0xE0000000
	// MulticastMax is 239.255.255.255, the highest class-D address.
	MulticastMax IP = 0xEFFFFFFF
	// LinkLocalMulticastMax is 224.0.0.255; groups at or below this are
	// never forwarded off the local link.
	LinkLocalMulticastMax IP = 0xE00000FF
	// AdminScopedBase is 239.0.0.0, the start of administratively
	// scoped multicast space (RFC 2365).
	AdminScopedBase IP = 0xEF000000
	// AllSystems is 224.0.0.1 (all systems on this subnet).
	AllSystems IP = 0xE0000001
	// AllRouters is 224.0.0.2 (all routers on this subnet).
	AllRouters IP = 0xE0000002
	// DVMRPRouters is 224.0.0.4 (all DVMRP routers).
	DVMRPRouters IP = 0xE0000004
	// PIMRouters is 224.0.0.13 (all PIM routers).
	PIMRouters IP = 0xE000000D
)

// V4 builds an IP from four dotted-quad octets.
func V4(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Parse parses a dotted-quad IPv4 address such as "192.168.1.7". Octets
// are decimal digits only: no sign, no leading zero, at most 255. It
// scans the bytes in place and allocates nothing unless it fails.
func Parse(s string) (IP, error) {
	if ip, n, ok := quad(s); ok && n == len(s) {
		return ip, nil
	}
	if strings.Count(s, ".") != 3 {
		return 0, errors.New("addr: " + strconv.Quote(s) + " is not a dotted-quad IPv4 address")
	}
	for oct, rest := "", s; ; { // some octet is at fault: name the first
		oct, rest, _ = strings.Cut(rest, ".")
		if _, n := octet(oct); n == 0 || n < len(oct) {
			return 0, errors.New("addr: invalid octet " + strconv.Quote(oct) + " in " + strconv.Quote(s))
		}
	}
}

// quad reads the address s starts with and its length; ok is false if none.
func quad(s string) (ip IP, n int, ok bool) {
	for part := 0; ; part++ {
		v, k := octet(s[n:])
		if ip, n = ip<<8|v, n+k; k == 0 || part == 3 {
			return ip, n, k > 0
		}
		if n == len(s) || s[n] != '.' {
			return 0, 0, false
		}
		n++
	}
}

// octet reads the octet s starts with — one to three digits, no leading
// zero, at most 255 — and how many bytes it took, 0 when there is none.
func octet(s string) (v IP, n int) {
	for n < len(s) && n < 3 && s[n]-'0' <= 9 && (n == 0 || v != 0) {
		v = v*10 + IP(s[n]-'0')
		n++
	}
	if v > 255 {
		return 0, 0
	}
	return v, n
}

// MustParse is like Parse but panics on malformed input.
// It is intended for constants in tests and topology builders.
func MustParse(s string) IP {
	ip, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	var b [15]byte
	buf := strconv.AppendUint(b[:0], uint64(ip>>24), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(ip>>16&0xFF), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(ip>>8&0xFF), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(ip&0xFF), 10)
	return string(buf)
}

// Octets returns the four dotted-quad octets of the address.
func (ip IP) Octets() (a, b, c, d byte) {
	return byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)
}

// IsMulticast reports whether the address lies in 224.0.0.0/4.
func (ip IP) IsMulticast() bool {
	return ip >= MulticastBase && ip <= MulticastMax
}

// IsLinkLocalMulticast reports whether the address lies in 224.0.0.0/24,
// the range reserved for local-wire control traffic.
func (ip IP) IsLinkLocalMulticast() bool {
	return ip >= MulticastBase && ip <= LinkLocalMulticastMax
}

// IsAdminScopedMulticast reports whether the address lies in 239.0.0.0/8.
func (ip IP) IsAdminScopedMulticast() bool {
	return ip >= AdminScopedBase && ip <= MulticastMax
}

// Next returns the numerically next address; it wraps at 255.255.255.255.
func (ip IP) Next() IP { return ip + 1 }

// Prefix is an IPv4 CIDR prefix. The zero value is 0.0.0.0/0.
type Prefix struct {
	// Addr is the network address; bits below Len are kept zero by the
	// constructors in this package.
	Addr IP
	// Len is the mask length, 0..32: a byte, so a prefix is 8 bytes.
	Len uint8
}

// PrefixFrom masks ip down to length bits and returns the prefix.
// It panics if bits is outside [0, 32].
func PrefixFrom(ip IP, bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic(fmt.Sprintf("addr: prefix length %d out of range", bits))
	}
	return Prefix{Addr: ip & maskFor(bits), Len: uint8(bits)}
}

// ParsePrefix parses CIDR notation such as "128.111.0.0/16". The length
// is decimal digits only, like the octets.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("addr: %q is not CIDR notation", s)
	}
	ip, err := Parse(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, ok := 0, slash+1 < len(s)
	for i := slash + 1; i < len(s) && ok; i++ {
		d := int(s[i] - '0')
		bits = bits*10 + d
		ok = d <= 9 && bits <= 32
	}
	if !ok {
		return Prefix{}, fmt.Errorf("addr: invalid prefix length in %q", s)
	}
	if ip&maskFor(bits) != ip {
		return Prefix{}, fmt.Errorf("addr: %q has host bits set", s)
	}
	return Prefix{Addr: ip, Len: uint8(bits)}, nil
}

// MustParsePrefix is like ParsePrefix but panics on malformed input.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func maskFor(bits int) IP {
	if bits == 0 {
		return 0
	}
	return IP(^uint32(0) << (32 - bits))
}

// Mask returns the netmask of the prefix as an address,
// e.g. 255.255.0.0 for a /16.
func (p Prefix) Mask() IP { return maskFor(int(p.Len)) }

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return p.Addr.String() + "/" + strconv.Itoa(int(p.Len))
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP) bool {
	return ip&maskFor(int(p.Len)) == p.Addr
}

// ContainsPrefix reports whether q is entirely inside p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.Len >= p.Len && p.Contains(q.Addr)
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

// First returns the lowest address in the prefix (the network address).
func (p Prefix) First() IP { return p.Addr }

// Last returns the highest address in the prefix (the broadcast address).
func (p Prefix) Last() IP {
	return p.Addr | ^maskFor(int(p.Len))
}

// NumAddresses returns the number of addresses covered by the prefix.
func (p Prefix) NumAddresses() uint64 {
	return uint64(1) << (32 - p.Len)
}

// Sibling returns the prefix that shares p's parent: the same prefix with
// the lowest significant bit flipped. It panics for /0.
func (p Prefix) Sibling() Prefix {
	if p.Len == 0 {
		panic("addr: /0 has no sibling")
	}
	bit := IP(1) << (32 - p.Len)
	return Prefix{Addr: p.Addr ^ bit, Len: p.Len}
}

// Parent returns the enclosing prefix one bit shorter. It panics for /0.
func (p Prefix) Parent() Prefix {
	if p.Len == 0 {
		panic("addr: /0 has no parent")
	}
	return PrefixFrom(p.Addr, int(p.Len)-1)
}

// Compare orders prefixes first by address then by length (shorter first).
// It returns -1, 0, or +1.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.Addr < q.Addr:
		return -1
	case p.Addr > q.Addr:
		return 1
	case p.Len < q.Len:
		return -1
	case p.Len > q.Len:
		return 1
	}
	return 0
}

// SortPrefixes sorts prefixes in place by (address, length).
func SortPrefixes(ps []Prefix) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
}

// Aggregate merges a set of prefixes into the minimal covering set:
// duplicates and prefixes contained in others are dropped, and sibling
// pairs are repeatedly merged into their parent. The input is not modified.
//
// Routing daemons differ in whether they aggregate before advertising;
// that very inconsistency is one of the route-table divergence sources
// the paper observes, so the routing code calls this selectively.
func Aggregate(ps []Prefix) []Prefix {
	if len(ps) == 0 {
		return nil
	}
	work := make([]Prefix, len(ps))
	copy(work, ps)
	for {
		SortPrefixes(work)
		// Drop duplicates and contained prefixes.
		out := work[:0]
		for _, p := range work {
			if len(out) > 0 && out[len(out)-1].ContainsPrefix(p) {
				continue
			}
			out = append(out, p)
		}
		// Merge adjacent siblings.
		merged := false
		res := out[:0]
		for i := 0; i < len(out); i++ {
			if i+1 < len(out) && out[i].Len == out[i+1].Len && out[i].Len > 0 &&
				out[i].Sibling() == out[i+1] {
				res = append(res, out[i].Parent())
				merged = true
				i++
				continue
			}
			res = append(res, out[i])
		}
		work = res
		if !merged {
			final := make([]Prefix, len(work))
			copy(final, work)
			return final
		}
	}
}

// LongestMatch returns the index of the longest prefix in ps containing ip,
// or -1 if none contains it. ps need not be sorted.
func LongestMatch(ps []Prefix, ip IP) int {
	best, bestLen := -1, -1
	for i, p := range ps {
		if p.Contains(ip) && int(p.Len) > bestLen {
			best, bestLen = i, int(p.Len)
		}
	}
	return best
}
