// The /query endpoint: the HTTP face of the compressed series store.
// Where /series serves one target's series verbatim, /query executes
// range and aggregate queries over the stored history — sealed blocks
// plus head — and is the seam the figure and
// mstat tooling consume, so its bytes must be deterministic: targets
// sorted, timestamps RFC3339 UTC, values round-tripped losslessly.
package output

import (
	"cmp"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/core/process"
	"repro/internal/core/tsdb"
)

// QueryFunc executes one store query; sharded deployments install a
// fleet-merging implementation via SetQuery.
type QueryFunc func(q tsdb.Query) (tsdb.Result, error)

// SetQuery overrides the query source backing /query and the ranged
// form of /series. By default the server queries the processor view's
// store; sharded deployments install the supervisor's fleet merge,
// which answers per-target on the owning shard and assembles the
// results deterministically.
func (s *Server) SetQuery(fn QueryFunc) { s.query = fn }

// runQuery resolves the installed query source, falling back to the
// processor view's store.
func (s *Server) runQuery(pv *process.View, q tsdb.Query) (tsdb.Result, error) {
	if s.query != nil {
		return s.query(q)
	}
	return pv.Store().Query(q)
}

// parseQuery builds a store query from URL parameters:
//
//	target  repeatable; empty means every target the store knows
//	metric  required metric name
//	op      range (default), min, max, avg, sum, count, rate, topk
//	from,to RFC3339 bounds, inclusive; either may be omitted
//	k       top-k size (op=topk)
//	by      top-k ranking aggregate: avg (default), min, max, sum, count, rate, last
//	tier    downsampling tier for range: 0 (raw, default), 10, 100
func parseQuery(r *http.Request) (tsdb.Query, error) {
	v := r.URL.Query()
	q := tsdb.Query{
		Targets: v["target"],
		Metric:  v.Get("metric"),
		Op:      tsdb.OpRange,
		By:      v.Get("by"),
	}
	if q.Metric == "" {
		return q, fmt.Errorf("metric is required")
	}
	if op := v.Get("op"); op != "" {
		switch tsdb.Op(op) {
		case tsdb.OpRange, tsdb.OpMin, tsdb.OpMax, tsdb.OpAvg, tsdb.OpSum, tsdb.OpCount, tsdb.OpRate, tsdb.OpTopK:
			q.Op = tsdb.Op(op)
		default:
			return q, fmt.Errorf("unknown op %q", op)
		}
	}
	var err error
	if q.From, err = parseBound(v.Get("from")); err != nil {
		return q, fmt.Errorf("from: %w", err)
	}
	if q.To, err = parseBound(v.Get("to")); err != nil {
		return q, fmt.Errorf("to: %w", err)
	}
	if k := v.Get("k"); k != "" {
		if q.K, err = strconv.Atoi(k); err != nil || q.K < 0 {
			return q, fmt.Errorf("bad k %q", k)
		}
	}
	if tier := v.Get("tier"); tier != "" {
		switch tier {
		case "0":
		case "10":
			q.Tier = tsdb.Tier10
		case "100":
			q.Tier = tsdb.Tier100
		default:
			return q, fmt.Errorf("bad tier %q (use 0, 10 or 100)", tier)
		}
	}
	return q, nil
}

// parseBound parses an RFC3339 instant into inclusive unixnano; empty
// means unbounded (0).
func parseBound(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return 0, err
	}
	return t.UnixNano(), nil
}

// handleQuery serves /query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := parseQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	pv := s.proc.View()
	res, err := s.runQuery(pv, q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	n := 0
	for _, tr := range res.Targets {
		n += len(tr.Points)
	}
	e := newBody(n + 6*len(res.Targets)) // a target's agg takes about six points' room
	e.result(res)
	e.send(w)
}

// rangedSeries answers the ranged form of /series/<target>/<metric>
// (any of from, to, limit present) through the query engine, which
// decodes only the blocks the range meets. The output shape matches the
// unranged endpoint exactly; limit keeps the newest n points, which the
// engine reads newest block first, decoding none it does not need. The
// bool reports whether ranged mode applied.
func (s *Server) rangedSeries(w http.ResponseWriter, r *http.Request, pv *process.View, target string, m process.Metric) bool {
	v := r.URL.Query()
	if v.Get("from") == "" && v.Get("to") == "" && v.Get("limit") == "" {
		return false
	}
	from, err := parseBound(v.Get("from"))
	if err != nil {
		http.Error(w, "from: "+err.Error(), http.StatusBadRequest)
		return true
	}
	to, err := parseBound(v.Get("to"))
	if err != nil {
		http.Error(w, "to: "+err.Error(), http.StatusBadRequest)
		return true
	}
	limit := 0
	if l := v.Get("limit"); l != "" {
		if limit, err = strconv.Atoi(l); err != nil || limit < 0 {
			http.Error(w, "bad limit "+strconv.Quote(l), http.StatusBadRequest)
			return true
		}
	}
	res, err := s.runQuery(pv, tsdb.Query{Targets: []string{target}, Metric: string(m), Op: tsdb.OpRange, From: from, To: to, Limit: limit})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return true
	}
	var pts []tsdb.Point
	for _, tr := range res.Targets {
		switch {
		case tr.Target != target:
		case pts == nil:
			pts = tr.Points
		default:
			pts = append(pts[:len(pts):len(pts)], tr.Points...)
		}
	}
	if !slices.IsSortedFunc(pts, byTime) {
		pts = slices.Clone(pts)
		slices.SortStableFunc(pts, byTime)
	}
	if limit > 0 && len(pts) > limit {
		pts = pts[len(pts)-limit:]
	}
	e := newBody(len(pts))
	e.points(pts)
	e.send(w)
	return true
}

// byTime orders points by timestamp.
func byTime(a, b tsdb.Point) int { return cmp.Compare(a.T, b.T) }
