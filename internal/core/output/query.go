// The /query endpoint: the HTTP face of the compressed series store.
// Where /series serves one target's series verbatim, /query executes
// range and aggregate queries over the stored history — sealed blocks
// plus head — and is the seam the figure and
// mstat tooling consume, so its bytes must be deterministic: targets
// sorted, timestamps RFC3339 UTC, values round-tripped losslessly.
package output

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/core/process"
	"repro/internal/core/tsdb"
)

// QueryFunc executes one store query; sharded deployments install a
// fleet-merging implementation via SetQuery.
type QueryFunc func(q tsdb.Query) (tsdb.Result, error)

// SetQuery overrides the query source backing /query and the ranged
// form of /series. By default the server queries its own processor's
// store; sharded deployments install the supervisor's fleet merge,
// which answers per-target on the owning shard and assembles the
// results deterministically.
func (s *Server) SetQuery(fn QueryFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.query = fn
}

// runQuery resolves the installed query source, falling back to the
// server's own processor store.
func (s *Server) runQuery(q tsdb.Query) (tsdb.Result, error) {
	s.mu.RLock()
	fn := s.query
	s.mu.RUnlock()
	if fn != nil {
		return fn(q)
	}
	return s.proc.Query(q)
}

// queryPoint mirrors the /series point shape so ranged query output is
// byte-compatible with the live-ring endpoint.
type queryPoint struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
	// Gap marks a cycle in which collection failed; V is meaningless.
	Gap bool `json:"gap,omitempty"`
}

// queryTarget is one target's slice of a query result.
type queryTarget struct {
	Target string       `json:"target"`
	Points []queryPoint `json:"points,omitempty"`
	Agg    *tsdb.Agg    `json:"agg,omitempty"`
}

// queryResponse is the JSON body served at /query.
type queryResponse struct {
	Metric  string        `json:"metric"`
	Op      string        `json:"op"`
	Targets []queryTarget `json:"targets"`
}

// toResponse converts a store result to the wire shape, materializing
// int64 unixnano timestamps as UTC instants exactly the way the live
// ring records them, so streamed and post-hoc output bytes agree.
func toResponse(res tsdb.Result) queryResponse {
	out := queryResponse{Metric: res.Metric, Op: string(res.Op), Targets: make([]queryTarget, 0, len(res.Targets))}
	for _, tr := range res.Targets {
		qt := queryTarget{Target: tr.Target, Agg: tr.Agg}
		for _, pt := range tr.Points {
			qt.Points = append(qt.Points, queryPoint{T: time.Unix(0, pt.T).UTC(), V: pt.V, Gap: pt.Gap})
		}
		out.Targets = append(out.Targets, qt)
	}
	return out
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
	res, err := s.runQuery(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, toResponse(res))
}

// rangedSeries answers the ranged form of /series/<target>/<metric>
// (any of from, to, limit present) through the query engine, which
// decodes only the blocks the range meets. The output shape matches the
// unranged endpoint exactly; limit keeps the newest n points. The bool
// reports whether ranged mode applied.
func (s *Server) rangedSeries(w http.ResponseWriter, r *http.Request, target string, m process.Metric) bool {
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
	res, err := s.runQuery(tsdb.Query{Targets: []string{target}, Metric: string(m), Op: tsdb.OpRange, From: from, To: to})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return true
	}
	pts := make([]queryPoint, 0)
	for _, tr := range res.Targets {
		if tr.Target != target {
			continue
		}
		for _, pt := range tr.Points {
			pts = append(pts, queryPoint{T: time.Unix(0, pt.T).UTC(), V: pt.V, Gap: pt.Gap})
		}
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].T.Before(pts[j].T) })
	if limit > 0 && len(pts) > limit {
		pts = pts[len(pts)-limit:]
	}
	writeJSON(w, pts)
	return true
}
