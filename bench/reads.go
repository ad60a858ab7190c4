// The read side: one closed-loop client issuing a seeded mix of HTTP
// requests at the system's handler, in-process (ServeHTTP into a
// ResponseRecorder; no socket, no loopback).
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"time"

	"repro/internal/core/process"
	"repro/internal/core/tsdb"
)

// Request classes of the mix, in the proportions the operator-facing
// surface is expected to see: mostly bounded aggregates, then ranges,
// rankings, ranged series, tables and graphs, and the two feeds.
const (
	classAgg = iota
	classRange
	classTopK
	classSeries
	classTables
	classFeeds
	numClasses
)

var classNames = [numClasses]string{"query_agg", "query_range", "query_topk", "series", "tables", "feeds"}

// classShare is the cumulative share of each class, in percent.
var classShare = [numClasses]int{40, 60, 70, 85, 95, 100}

// truthMetrics are the series the harness can recompute on its own: their
// values are the entry counts the routers declared in their dump headers.
var truthMetrics = []process.Metric{process.MetricRoutes, process.MetricSACache, process.MetricMBGPRoutes}

// truthPoint is one externally known series value.
type truthPoint struct {
	T int64 // unixnano
	V float64
}

// truth holds, per target and truth metric, the points the system must
// have stored: synthetic history the harness ingested itself plus the
// declared counts of every successfully collected cycle.
type truth map[string]map[process.Metric][]truthPoint

func (tr truth) add(target string, m process.Metric, at time.Time, v float64) {
	tm := tr[target]
	if tm == nil {
		tm = make(map[process.Metric][]truthPoint)
		tr[target] = tm
	}
	tm[m] = append(tm[m], truthPoint{T: at.UnixNano(), V: v})
}

// observe records a successfully collected cycle's declared counts.
func (tr truth) observe(target string, at time.Time, c tableCounts) {
	tr.add(target, process.MetricRoutes, at, float64(c.Routes))
	tr.add(target, process.MetricSACache, at, float64(c.SAs))
	tr.add(target, process.MetricMBGPRoutes, at, float64(c.MBGP))
}

// request is one prepared read.
type request struct {
	class int
	url   string
	// query is the store query behind a /query request, so the traced run
	// can time the tsdb layer alone on the same read.
	query *tsdb.Query
	// verify, when set, checks the body against the harness's own
	// reference; it runs untimed.
	verify func(body []byte) error
}

// mixer draws requests from the seed. The window it draws from moves
// with the history: from is the first stored instant, to the latest.
type mixer struct {
	rng     *prng
	targets []string
	tables  bool
	step    time.Duration
	first   time.Time
	truth   truth
}

var aggOps = []string{"avg", "min", "max", "rate"}
var tiers = []int{0, 10, 100}

func stamp(t time.Time) string { return url.QueryEscape(t.UTC().Format(time.RFC3339)) }

// window draws a sub-window of at most span points ending no later than
// latest.
func (m *mixer) window(latest time.Time, minPts, maxPts int) (time.Time, time.Time) {
	total := int(latest.Sub(m.first)/m.step) + 1
	pts := minPts + m.rng.Intn(maxPts-minPts+1)
	if pts > total {
		pts = total
	}
	start := m.rng.Intn(total - pts + 1)
	from := m.first.Add(time.Duration(start) * m.step)
	return from, from.Add(time.Duration(pts-1) * m.step)
}

// next draws one request against the history as it stands at latest.
func (m *mixer) next(latest time.Time) request {
	p := m.rng.Intn(100)
	class := 0
	for p >= classShare[class] {
		class++
	}
	target := m.targets[m.rng.Intn(len(m.targets))]
	metric := process.AllMetrics[m.rng.Intn(len(process.AllMetrics))]
	switch class {
	case classAgg:
		// Half the aggregates land on a metric the harness can verify.
		if m.rng.Bool(0.5) {
			metric = truthMetrics[m.rng.Intn(len(truthMetrics))]
		}
		op := aggOps[m.rng.Intn(len(aggOps))]
		from, to := m.window(latest, 16, 4096)
		r := request{class: class, url: fmt.Sprintf("/query?metric=%s&op=%s&target=%s&from=%s&to=%s", metric, op, target, stamp(from), stamp(to))}
		r.query = &tsdb.Query{Targets: []string{target}, Metric: string(metric), Op: tsdb.Op(op), From: from.UnixNano(), To: to.UnixNano()}
		if pts, ok := m.truth[target][metric]; ok {
			r.verify = func(body []byte) error { return verifyAgg(body, target, pts, from.UnixNano(), to.UnixNano()) }
		}
		return r
	case classRange:
		tier := tiers[m.rng.Intn(len(tiers))]
		from, to := m.window(latest, 256*max(tier, 1), 2048*max(tier, 1))
		return request{class: class, url: fmt.Sprintf("/query?metric=%s&target=%s&tier=%d&from=%s&to=%s", metric, target, tier, stamp(from), stamp(to)),
			query: &tsdb.Query{Targets: []string{target}, Metric: string(metric), Op: tsdb.OpRange, Tier: tier, From: from.UnixNano(), To: to.UnixNano()}}
	case classTopK:
		from, to := m.window(latest, 64, 2048)
		return request{class: class, url: fmt.Sprintf("/query?metric=%s&op=topk&k=5&by=max&from=%s&to=%s", metric, stamp(from), stamp(to)),
			query: &tsdb.Query{Metric: string(metric), Op: tsdb.OpTopK, K: 5, By: "max", From: from.UnixNano(), To: to.UnixNano()}}
	case classSeries:
		from, to := m.window(latest, 64, 1024)
		return request{class: class, url: fmt.Sprintf("/series/%s/%s?from=%s&to=%s&limit=%d", target, metric, stamp(from), stamp(to), 32+m.rng.Intn(225))}
	case classTables:
		if m.tables && m.rng.Bool(0.5) {
			return request{class: class, url: fmt.Sprintf("/tables/busiest-%s?sort=kbps&desc=1", target)}
		}
		return request{class: class, url: fmt.Sprintf("/graph/%s/%s", target, metric)}
	}
	if m.rng.Bool(0.5) {
		return request{class: classFeeds, url: "/anomalies?open=1"}
	}
	return request{class: classFeeds, url: "/health"}
}

// verifyAgg recomputes a bounded aggregate from the harness's own points
// and compares it with the served one.
func verifyAgg(body []byte, target string, pts []truthPoint, from, to int64) error {
	var resp struct {
		Targets []struct {
			Target string `json:"target"`
			Agg    *struct {
				Count int     `json:"count"`
				Min   float64 `json:"min"`
				Max   float64 `json:"max"`
				Sum   float64 `json:"sum"`
				Avg   float64 `json:"avg"`
				Rate  float64 `json:"rate"`
			} `json:"agg"`
		} `json:"targets"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if len(resp.Targets) != 1 || resp.Targets[0].Target != target {
		return fmt.Errorf("want one row for %s, got %d", target, len(resp.Targets))
	}
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].T >= from })
	hi := sort.Search(len(pts), func(i int) bool { return pts[i].T > to })
	in := pts[lo:hi]
	got := resp.Targets[0].Agg
	if len(in) == 0 {
		if got != nil && got.Count != 0 {
			return fmt.Errorf("served %d points where the reference has none", got.Count)
		}
		return nil
	}
	if got == nil {
		return fmt.Errorf("no aggregate served, reference has %d points", len(in))
	}
	min, max, total := in[0].V, in[0].V, 0.0
	for _, p := range in {
		min, max, total = math.Min(min, p.V), math.Max(max, p.V), total+p.V
	}
	rate := 0.0
	if dt := in[len(in)-1].T - in[0].T; dt > 0 {
		rate = (in[len(in)-1].V - in[0].V) / (float64(dt) / 1e9)
	}
	switch {
	case got.Count != len(in):
		return fmt.Errorf("count %d, reference %d", got.Count, len(in))
	case got.Min != min || got.Max != max || got.Sum != total:
		return fmt.Errorf("min/max/sum %v/%v/%v, reference %v/%v/%v", got.Min, got.Max, got.Sum, min, max, total)
	case !near(got.Avg, total/float64(len(in))) || !near(got.Rate, rate):
		return fmt.Errorf("avg/rate %v/%v, reference %v/%v", got.Avg, got.Rate, total/float64(len(in)), rate)
	}
	return nil
}

func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// readStats accumulates the timed request loop's samples.
type readStats struct {
	ms      []float64 // every request's latency
	classMs [numClasses][]float64
	// cpuMs and allocMB total the process CPU and heap allocation inside
	// the timed calls.
	cpuMs, allocMB float64
	bytes          int
	verified       int
	failed         int
	failures       []string
}

// serve issues one request; only the ServeHTTP call is timed.
func (rs *readStats) serve(h http.Handler, r request, tr *tracer, cycle int) {
	req := httptest.NewRequest(http.MethodGet, r.url, nil)
	rec := httptest.NewRecorder()
	id := tr.begin("output."+classNames[r.class], "", cycle, 0)
	a0, c0 := heapAllocBytes(), cpuTime()
	t0 := now()
	h.ServeHTTP(rec, req)
	d := now() - t0
	c1, a1 := cpuTime(), heapAllocBytes()
	tr.end(id)
	rs.cpuMs += ms(c1 - c0)
	rs.allocMB += float64(a1-a0) / (1 << 20)
	rs.ms = append(rs.ms, ms(d))
	rs.classMs[r.class] = append(rs.classMs[r.class], ms(d))
	rs.bytes += rec.Body.Len()
	var err error
	switch {
	case rec.Code != http.StatusOK:
		err = fmt.Errorf("status %d: %.80s", rec.Code, rec.Body.String())
	case rec.Body.Len() == 0:
		err = fmt.Errorf("empty body")
	case r.verify != nil:
		rs.verified++
		err = r.verify(rec.Body.Bytes())
	}
	if err != nil {
		rs.failed++
		if len(rs.failures) < 5 {
			rs.failures = append(rs.failures, r.url+": "+err.Error())
		}
	}
}
