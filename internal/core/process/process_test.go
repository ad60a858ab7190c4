package process

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

func pair(s, g string, rate float64) tables.PairEntry {
	return tables.PairEntry{Source: addr.MustParse(s), Group: addr.MustParse(g), RateKbps: rate, Flags: "D"}
}

func route(p string, metric int) tables.RouteEntry {
	return tables.RouteEntry{Prefix: addr.MustParsePrefix(p), Metric: metric, Gateway: addr.MustParse("9.9.9.9")}
}

func snapAt(at time.Time, pairs tables.PairTable, routes tables.RouteTable) *tables.Snapshot {
	return &tables.Snapshot{Target: "fixw", At: at, Pairs: pairs, Routes: routes}
}

func TestIngestClassification(t *testing.T) {
	p := New()
	sn := snapAt(sim.Epoch, tables.PairTable{
		pair("1.1.1.1", "224.1.1.1", 64),  // sender, active session
		pair("2.2.2.2", "224.1.1.1", 1),   // passive in same session
		pair("3.3.3.3", "224.1.1.2", 0.5), // passive-only session
		pair("1.1.1.1", "224.1.1.2", 2),   // same host, second group, passive rate
	}, nil)
	st := p.Ingest(sn)
	if st.Sessions != 2 || st.Participants != 3 {
		t.Errorf("sessions=%d participants=%d", st.Sessions, st.Participants)
	}
	if st.Senders != 1 {
		t.Errorf("senders = %d", st.Senders)
	}
	if st.ActiveSessions != 1 {
		t.Errorf("active = %d", st.ActiveSessions)
	}
	if math.Abs(st.AvgDensity-2) > 1e-9 { // (2+2)/2
		t.Errorf("density = %f", st.AvgDensity)
	}
	if math.Abs(st.BandwidthKbps-67.5) > 1e-9 {
		t.Errorf("bandwidth = %f", st.BandwidthKbps)
	}
	if st.SingleMemberSessions != 0 {
		t.Errorf("single = %d", st.SingleMemberSessions)
	}
}

func TestSavedFactor(t *testing.T) {
	p := New()
	// One sender at 100 kbps to a 5-member session: unicast would cost
	// 4 copies; passive pairs cost the same either way.
	pairs := tables.PairTable{pair("1.1.1.1", "224.1.1.1", 100)}
	for i := 0; i < 4; i++ {
		pairs = append(pairs, pair(addr.V4(2, 2, 2, byte(i+1)).String(), "224.1.1.1", 0))
	}
	st := p.Ingest(snapAt(sim.Epoch, pairs, nil))
	if math.Abs(st.SavedFactor-4) > 1e-9 {
		t.Errorf("saved factor = %f, want 4", st.SavedFactor)
	}
}

func TestSeriesAndRatios(t *testing.T) {
	p := New()
	p.Ingest(snapAt(sim.Epoch, tables.PairTable{
		pair("1.1.1.1", "224.1.1.1", 64),
		pair("2.2.2.2", "224.1.1.2", 1),
	}, nil))
	if got := p.Series("fixw", MetricActiveRatio).Last(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("active ratio = %f", got)
	}
	if got := p.Series("fixw", MetricSenderRatio).Last(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("sender ratio = %f", got)
	}
	if p.Series("fixw", MetricSessions).Len() != 1 {
		t.Error("series not extended")
	}
	if p.Series("nope", MetricSessions) != nil {
		t.Error("unknown target should be nil")
	}
	if len(p.Targets()) != 1 || p.Targets()[0] != "fixw" {
		t.Errorf("targets = %v", p.Targets())
	}
}

func TestRouteChurn(t *testing.T) {
	p := New()
	at := sim.Epoch
	st := p.Ingest(snapAt(at, nil, tables.RouteTable{route("10.0.0.0/8", 1), route("11.0.0.0/8", 1)}))
	if st.RouteChurn != 0 {
		t.Errorf("first-cycle churn = %d", st.RouteChurn)
	}
	at = at.Add(time.Hour)
	st = p.Ingest(snapAt(at, nil, tables.RouteTable{route("10.0.0.0/8", 1), route("12.0.0.0/8", 1)}))
	if st.RouteChurn != 2 { // one added, one removed
		t.Errorf("churn = %d", st.RouteChurn)
	}
	if st.Routes != 2 {
		t.Errorf("routes = %d", st.Routes)
	}
}

// TestRouteChurnInPlace: churn is counted by walking the table against
// the previous one, kept by reference. It must still be the size of the
// symmetric difference with the previous table (a repeated prefix
// counting once), and what ExportState writes into checkpoints must be
// exactly this table's distinct prefixes, in order.
func TestRouteChurnInPlace(t *testing.T) {
	p := New()
	at := sim.Epoch
	prev := map[addr.Prefix]bool{}
	for c, routes := range churningTables(5, 60) {
		cur := map[addr.Prefix]bool{}
		for _, r := range routes {
			cur[r.Prefix] = true
		}
		want := 0
		if c > 0 {
			for pr := range cur {
				if !prev[pr] {
					want++
				}
			}
			for pr := range prev {
				if !cur[pr] {
					want++
				}
			}
		}
		if st := p.Ingest(snapAt(at, nil, routes)); st.RouteChurn != want {
			t.Fatalf("cycle %d: churn = %d, want %d", c, st.RouteChurn, want)
		}
		if got := p.ExportState().LastRoute["fixw"]; !reflect.DeepEqual(got, sortedPrefixes(cur)) {
			t.Fatalf("cycle %d: exported prefixes = %v, want %v", c, got, sortedPrefixes(cur))
		}
		prev = cur
		at = at.Add(30 * time.Minute)
	}
}

// TestRouteChurnCases: what the walk counts, case by case — and that a
// processor restored through either state-transfer seam, a handoff's
// ImportTarget or a recovery's Restore, counts the next table exactly as
// the one that kept running.
func TestRouteChurnCases(t *testing.T) {
	a, b, c, d, e := route("10.1.0.0/16", 1), route("10.2.0.0/16", 1), route("10.3.0.0/16", 1), route("10.4.0.0/16", 1), route("10.5.0.0/16", 1)
	b9 := route("10.2.0.0/16", 9)
	steps := []struct {
		name   string
		routes tables.RouteTable
		want   int
	}{
		{"a target's first table has no predecessor", tables.RouteTable{a, b, c}, 0},
		{"a prefix listed twice is one prefix", tables.RouteTable{a, b, b9, c}, 0},
		{"an out-of-order table is the same table", tables.RouteTable{c, a, b}, 0},
		{"a changed metric is not churn", tables.RouteTable{a, b9, c}, 0},
		{"one prefix gone, one new", tables.RouteTable{a, c, d}, 2},
		{"out of order, repeated and changed at once", tables.RouteTable{e, d, a, a}, 2},
		{"an empty table after a full one", nil, 3},
		{"an empty table after an empty one", nil, 0},
		{"a full table after an empty one", tables.RouteTable{a, b}, 2},
	}
	p := New()
	at := sim.Epoch
	var latest *tables.Snapshot
	for _, step := range steps {
		viaRestore, viaTarget := restored(p, map[string]*tables.Snapshot{"fixw": latest}), New()
		viaTarget.ImportTarget("fixw", p.ExportTarget("fixw"), latest)
		given := append(tables.RouteTable(nil), step.routes...)
		latest = snapAt(at, nil, step.routes)
		for name, q := range map[string]*Processor{"live": p, "after Restore": viaRestore, "after ImportTarget": viaTarget} {
			if got := q.Ingest(latest).RouteChurn; got != step.want {
				t.Errorf("%s (%s): churn = %d, want %d", step.name, name, got, step.want)
			}
		}
		if !reflect.DeepEqual(step.routes, given) {
			t.Fatalf("%s: Ingest wrote to the snapshot's route table", step.name)
		}
		at = at.Add(30 * time.Minute)
	}
}

// restored returns a fresh processor that Restore loaded with p's
// per-target exports and ring counters, the way a crash recovery loads a
// checkpoint; latest holds each target's last snapshot.
func restored(p *Processor, latest map[string]*tables.Snapshot) *Processor {
	states := make(map[string]*TargetState)
	for _, target := range p.Targets() {
		states[target] = p.ExportTarget(target)
	}
	q := New()
	q.Restore(p.Ring(), states, latest)
	return q
}

func TestRouteInjectionDetection(t *testing.T) {
	p := New()
	at := sim.Epoch
	mk := func(n int) tables.RouteTable {
		var rt tables.RouteTable
		for i := 0; i < n; i++ {
			rt = append(rt, route(addr.PrefixFrom(addr.IP(uint32(i)<<12), 24).String(), 1))
		}
		return rt
	}
	// Stable baseline of ~500 routes.
	for i := 0; i < 10; i++ {
		p.Ingest(snapAt(at, nil, mk(500+i)))
		at = at.Add(30 * time.Minute)
	}
	if len(p.Anomalies()) != 0 {
		t.Fatalf("false positives: %+v", p.Anomalies())
	}
	// Injection: jump to 1400 for three cycles, then back.
	for i := 0; i < 3; i++ {
		p.Ingest(snapAt(at, nil, mk(1400)))
		at = at.Add(30 * time.Minute)
	}
	for i := 0; i < 3; i++ {
		p.Ingest(snapAt(at, nil, mk(505)))
		at = at.Add(30 * time.Minute)
	}
	an := p.Anomalies()
	if len(an) != 1 {
		t.Fatalf("anomalies = %+v", an)
	}
	if an[0].Kind != "route-injection" || an[0].Target != "fixw" {
		t.Errorf("anomaly = %+v", an[0])
	}
	// A second, separate episode is reported separately.
	for i := 0; i < 9; i++ {
		p.Ingest(snapAt(at, nil, mk(505)))
		at = at.Add(30 * time.Minute)
	}
	p.Ingest(snapAt(at, nil, mk(1500)))
	if len(p.Anomalies()) != 2 {
		t.Errorf("second episode not detected: %+v", p.Anomalies())
	}
}

func TestSeriesStats(t *testing.T) {
	s := &Series{}
	for i, v := range []float64{1, 2, 3, 4, 10} {
		s.Append(sim.Epoch.Add(time.Duration(i)*time.Hour), v)
	}
	mean, median, stddev, min, max := s.Stats()
	if mean != 4 || median != 3 || min != 1 || max != 10 {
		t.Errorf("stats = %f %f %f %f", mean, median, min, max)
	}
	if math.Abs(stddev-math.Sqrt(10)) > 1e-9 {
		t.Errorf("stddev = %f", stddev)
	}
	var empty Series
	if m, _, _, _, _ := empty.Stats(); m != 0 || empty.Last() != 0 {
		t.Error("empty series stats should be zero")
	}
}

// TestSeriesStatsOrderIndependent sums values whose magnitudes differ
// by orders, so any change in the order of the sums moves the low bits
// of the mean or the deviation: 200 calls must agree bit for bit with
// sums in time order. In the second series the mean is exactly zero in
// any order, and six squared deviations of 1 vanish beside two of 1e16
// only when they come after them.
func TestSeriesStatsOrderIndependent(t *testing.T) {
	for _, vals := range [][]float64{
		{1e16, 1.0, -1e16, 0.25, 3.5e-3, 7e9, -7e9, 0.125},
		{1e8, -1e8, 1, -1, 1, -1, 1, -1},
	} {
		s := &Series{}
		for i, v := range vals {
			s.Append(sim.Epoch.Add(time.Duration(i)*time.Hour), v)
		}
		sum, varsum := 0.0, 0.0
		for _, v := range vals {
			sum += v
		}
		mean := sum / float64(len(vals))
		for _, v := range vals {
			varsum += (v - mean) * (v - mean)
		}
		stddev := math.Sqrt(varsum / float64(len(vals)))
		for i := 0; i < 200; i++ {
			m, _, sd, _, _ := s.Stats()
			if math.Float64bits(m) != math.Float64bits(mean) || math.Float64bits(sd) != math.Float64bits(stddev) {
				t.Fatalf("%v, call %d: mean %v stddev %v, want %v and %v summed in time order", vals, i, m, sd, mean, stddev)
			}
		}
	}
}

func TestSeriesStatsEvenMedian(t *testing.T) {
	s := &Series{}
	for i, v := range []float64{4, 1, 3, 2} {
		s.Append(sim.Epoch.Add(time.Duration(i)*time.Hour), v)
	}
	if _, median, _, _, _ := s.Stats(); median != 2.5 {
		t.Errorf("median = %f", median)
	}
}

func TestDensityDistribution(t *testing.T) {
	// 10 sessions: 8 singles, one with 2, one with 38 members.
	var pairs tables.PairTable
	for i := 0; i < 8; i++ {
		pairs = append(pairs, pair(addr.V4(1, 1, 1, byte(i+1)).String(), addr.V4(224, 5, 0, byte(i+1)).String(), 1))
	}
	pairs = append(pairs, pair("2.2.2.1", "224.6.0.1", 1), pair("2.2.2.2", "224.6.0.1", 1))
	for i := 0; i < 38; i++ {
		pairs = append(pairs, pair(addr.V4(3, 3, byte(i/250), byte(i%250+1)).String(), "224.7.0.1", 1))
	}
	sn := snapAt(sim.Epoch, pairs, nil)
	atMost2, topShare := DensityDistribution(sn, 2, 0.1)
	if math.Abs(atMost2-0.9) > 1e-9 {
		t.Errorf("atMost2 = %f", atMost2)
	}
	if math.Abs(topShare-38.0/48.0) > 1e-9 {
		t.Errorf("topShare = %f", topShare)
	}
	if a, b := DensityDistribution(snapAt(sim.Epoch, nil, nil), 2, 0.1); a != 0 || b != 0 {
		t.Error("empty snapshot should give zeros")
	}
}

func TestBusiestAndTopSummaries(t *testing.T) {
	sn := snapAt(sim.Epoch, tables.PairTable{
		pair("1.1.1.1", "224.1.1.1", 100),
		pair("2.2.2.2", "224.1.1.2", 500),
		pair("3.3.3.3", "224.1.1.3", 10),
	}, nil)
	top := BusiestSessions(sn, 2)
	if len(top) != 2 || top[0].Group != addr.MustParse("224.1.1.2") {
		t.Errorf("busiest = %+v", top)
	}
	snd := TopSenders(sn, 1)
	if len(snd) != 1 || snd[0].Host != addr.MustParse("2.2.2.2") {
		t.Errorf("top senders = %+v", snd)
	}
	if got := BusiestSessions(sn, 99); len(got) != 3 {
		t.Errorf("clamping failed: %d", len(got))
	}
}

func TestSummarizeRoutes(t *testing.T) {
	sn := snapAt(sim.Epoch, nil, tables.RouteTable{
		route("10.0.0.0/8", 1),
		route("11.0.0.0/8", 1),
		route("12.0.0.0/8", 3),
		{Prefix: addr.MustParsePrefix("13.0.0.0/8"), Local: true},
	})
	rs := SummarizeRoutes(sn)
	if rs.Total != 4 || rs.Local != 1 {
		t.Errorf("summary = %+v", rs)
	}
	if rs.MetricCounts[1] != 2 || rs.MetricCounts[3] != 1 {
		t.Errorf("metric counts = %v", rs.MetricCounts)
	}
	if rs.DistinctOrigin != 1 {
		t.Errorf("origins = %d", rs.DistinctOrigin)
	}
}
