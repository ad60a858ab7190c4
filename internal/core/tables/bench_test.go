package tables_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core/collect"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

// routeDump renders an n-row `show ip dvmrp route` dump in the simulated
// router's layout: varied prefixes, gateways, metrics and uptimes. The
// rows are in prefix order, as a router lists them, unless shuffled,
// which cycles the first octet row by row.
func routeDump(n int, shuffled bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "DVMRP Routing Table - %d entries\n", n)
	b.WriteString("Origin-Subnet       From-Gateway     Metric  Uptime\n")
	for i := 0; i < n; i++ {
		gw := "local"
		if i%7 != 0 {
			gw = fmt.Sprintf("198.32.%d.%d", i%13, 1+i%250)
		}
		up, first := 37*i+5, 10+i/65536
		if shuffled {
			first = 10 + i%200
		}
		fmt.Fprintf(&b, "%-19s %-16s %-7d %s\n", fmt.Sprintf("%d.%d.%d.0/24", first, i/256%256, i%256),
			gw, 1+i%31, fmt.Sprintf("%d:%02d:%02d", up/3600, up/60%60, up%60))
	}
	return b.String()
}

// mrouteDump renders an n-row `show ip mroute` dump in the simulated
// router's layout: dense and sparse pairs, varied interfaces and
// counters, in (group, source) order, twenty sources a group.
func mrouteDump(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "IP Multicast Forwarding Table - %d entries\n", n)
	b.WriteString("Source           Group            Flags  IIF  OIFs           Kbps      Pkts        Uptime\n")
	for i := 0; i < n; i++ {
		flags, oifs := "D", "-"
		if i%3 == 0 {
			flags, oifs = "S", fmt.Sprintf("%d,%d", i%5, 5+i%4)
		}
		up, g := 11*i+3, i/20
		fmt.Fprintf(&b, "%-16s %-16s %-6s %-4d %-14s %-9.1f %-11d %s\n",
			fmt.Sprintf("128.%d.%d.%d", 4*(i%20), g%256, 1+i%200), fmt.Sprintf("239.%d.%d.%d", g/64000, g/250%256, 1+g%250),
			flags, i%9, oifs, float64(i%400)/4, 1000*i+17, fmt.Sprintf("%d:%02d:%02d", up/3600, up/60%60, up%60))
	}
	return b.String()
}

// BenchmarkScanDumps is one target's scan on recorded-shape input: a
// 3 000-row DVMRP route dump, what each dvmrp-fleet router sends a
// cycle, and a 1 000-row forwarding dump, both in key order; and the
// route dump out of order, which no router sends, to time the parse's
// duplicate check by sorting. Bytes are the dump's.
func BenchmarkScanDumps(b *testing.B) {
	for _, c := range []struct{ name, command, raw string }{
		{"dvmrp-3000", "show ip dvmrp route", routeDump(3000, false)},
		{"mroute-1000", "show ip mroute", mrouteDump(1000)},
		{"dvmrp-3000-out-of-order", "show ip dvmrp route", routeDump(3000, true)},
	} {
		b.Run(c.name, func(b *testing.B) {
			dumps := []collect.Dump{{Target: "r", Command: c.command, Raw: c.raw, At: sim.Epoch}}
			b.SetBytes(int64(len(c.raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err, defect := tables.ScanDumps("r> ", dumps); err != nil || defect != nil {
					b.Fatal(err, defect)
				}
			}
		})
	}
}
