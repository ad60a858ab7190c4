package snmp

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/addr"
)

// SNMPTables is the SNMP alternative to the CLI scrape: it walks
// the era's MIBs (DVMRP route table and ipMRouteTable) and returns the
// raw bindings grouped per table, for comparison against the CLI path.
//
// The returned structures deliberately mirror SNMP's coverage boundary:
// PairRows carry no protocol flags (no such column existed) and there is
// no MSDP or PIM data at all — the gap that made the paper scrape CLIs.
type SNMPTables struct {
	// RouteRows maps source prefix to (metric, uptime, upstream).
	RouteRows map[addr.Prefix]SNMPRoute
	// PairRows maps (source, group) to counters.
	PairRows map[SNMPPairKey]SNMPPair
}

// SNMPRoute is one dvmrpRouteTable row.
type SNMPRoute struct {
	Metric   int
	Uptime   time.Duration
	Upstream addr.IP
}

// SNMPPairKey indexes ipMRouteTable rows.
type SNMPPairKey struct {
	Source addr.IP
	Group  addr.IP
}

// SNMPPair is one ipMRouteTable row.
type SNMPPair struct {
	Uptime  time.Duration
	Packets uint64
	Octets  uint64
}

// CollectSNMP walks the multicast MIBs through the client.
func CollectSNMP(c *Client) (*SNMPTables, error) {
	out := &SNMPTables{
		RouteRows: make(map[addr.Prefix]SNMPRoute),
		PairRows:  make(map[SNMPPairKey]SNMPPair),
	}
	routeBinds, err := c.Walk(OIDDVMRPRoute)
	if err != nil {
		return nil, fmt.Errorf("snmp: dvmrp walk: %w", err)
	}
	base := len(OIDDVMRPRoute)
	for _, vb := range routeBinds {
		// Index: col . src(4) . mask(4)
		if len(vb.OID) != base+1+8 {
			continue
		}
		col := vb.OID[base]
		src := oidIP(vb.OID[base+1 : base+5])
		mask := oidIP(vb.OID[base+5 : base+9])
		p := addr.PrefixFrom(src, bits.LeadingZeros32(^uint32(mask)))
		row := out.RouteRows[p]
		switch col {
		case colDVMRPUpstream:
			row.Upstream = valueIP(vb.Value)
		case colDVMRPMetric:
			row.Metric = int(vb.Value.Int)
		case colDVMRPUpTime:
			row.Uptime = time.Duration(vb.Value.Int) * 10 * time.Millisecond
		}
		out.RouteRows[p] = row
	}

	pairBinds, err := c.Walk(OIDIPMRoute)
	if err != nil {
		return nil, fmt.Errorf("snmp: mroute walk: %w", err)
	}
	base = len(OIDIPMRoute)
	for _, vb := range pairBinds {
		// Index: col . group(4) . src(4) . srcmask(4)
		if len(vb.OID) != base+1+12 {
			continue
		}
		col := vb.OID[base]
		group := oidIP(vb.OID[base+1 : base+5])
		src := oidIP(vb.OID[base+5 : base+9])
		k := SNMPPairKey{Source: src, Group: group}
		row := out.PairRows[k]
		switch col {
		case colMRouteUpTime:
			row.Uptime = time.Duration(vb.Value.Int) * 10 * time.Millisecond
		case colMRoutePkts:
			row.Packets = uint64(vb.Value.Int)
		case colMRouteOctets:
			row.Octets = uint64(vb.Value.Int)
		}
		out.PairRows[k] = row
	}
	return out, nil
}

func oidIP(arcs []uint32) addr.IP {
	return addr.V4(byte(arcs[0]), byte(arcs[1]), byte(arcs[2]), byte(arcs[3]))
}

func valueIP(v Value) addr.IP {
	if len(v.Str) != 4 {
		return 0
	}
	return addr.V4(v.Str[0], v.Str[1], v.Str[2], v.Str[3])
}
