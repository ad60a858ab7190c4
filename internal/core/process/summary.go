package process

import (
	"cmp"
	"slices"

	"repro/internal/addr"
	"repro/internal/core/tables"
)

// BusiestSessions returns the top-n sessions by aggregate bandwidth — the
// paper's "busiest multicast sessions" summary table.
func BusiestSessions(sn *tables.Snapshot, n int) tables.SessionTable {
	ss := sn.Pairs.Sessions()
	slices.SortFunc(ss, func(a, b tables.SessionEntry) int {
		return cmp.Or(cmp.Compare(b.TotalRateKbps, a.TotalRateKbps), cmp.Compare(a.Group, b.Group))
	})
	if n > len(ss) {
		n = len(ss)
	}
	return ss[:n]
}

// TopSenders returns the top-n participants by peak rate.
func TopSenders(sn *tables.Snapshot, n int) tables.ParticipantTable {
	ps := sn.Pairs.Participants()
	slices.SortFunc(ps, func(a, b tables.ParticipantEntry) int {
		return cmp.Or(cmp.Compare(b.MaxRateKbps, a.MaxRateKbps), cmp.Compare(a.Host, b.Host))
	})
	if n > len(ps) {
		n = len(ps)
	}
	return ps[:n]
}

// RouteSummary aggregates the route table: total count, locally
// originated count, and a histogram of metrics — the "raw count of
// networks available via DVMRP" style summary.
type RouteSummary struct {
	Total, Local   int
	MetricCounts   map[int]int
	DistinctOrigin int
}

// SummarizeRoutes computes a RouteSummary for the snapshot.
func SummarizeRoutes(sn *tables.Snapshot) RouteSummary {
	rs := RouteSummary{MetricCounts: make(map[int]int)}
	gateways := make(map[addr.IP]bool)
	for _, r := range sn.Routes {
		rs.Total++
		if r.Local {
			rs.Local++
		} else {
			gateways[r.Gateway] = true
		}
		rs.MetricCounts[r.Metric]++
	}
	rs.DistinctOrigin = len(gateways)
	return rs
}
