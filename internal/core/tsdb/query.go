// Query engine: range and aggregate reads over sealed blocks + head.
//
// Execution is split in two deterministic halves so the sharded fleet
// can reuse it: QueryTarget answers for one target against one store
// (each shard runs it over the targets it owns), and Assemble merges
// per-target results into the final answer — sorted by target name,
// top-k applied last — so the bytes are identical whether one store or
// sixteen shards produced the parts. That is the same fan-in discipline
// as every other fleet view.
//
// The sparse index does the skipping: blocks disjoint from [From, To]
// are never decoded, and fully-contained blocks answer aggregates from
// their headers alone.
package tsdb

import (
	"math"
	"sort"
)

// Op selects what a query computes.
type Op string

// Query operations. Aggregates cover value points only; gaps are
// reported in range output and counted in tier buckets but never enter
// an aggregate.
const (
	// OpRange returns the points (values and gap markers) in [From, To].
	OpRange Op = "range"
	OpMin   Op = "min"
	OpMax   Op = "max"
	OpAvg   Op = "avg"
	OpSum   Op = "sum"
	OpCount Op = "count"
	// OpRate is the per-second slope between the first and last value
	// point in range: (last-first)/Δt.
	OpRate Op = "rate"
	// OpTopK ranks targets by the aggregate named in By (default avg)
	// and keeps the K highest.
	OpTopK Op = "topk"
)

// Query describes one read.
type Query struct {
	// Targets to answer for; empty means every target the store (or
	// fleet) knows, in sorted order.
	Targets []string
	Metric  string
	// From and To bound the range in unixnano, inclusive. Zero To (and
	// zero From) mean unbounded — all stored timestamps are positive.
	From int64
	To   int64
	Op   Op
	// K bounds OpTopK output; <= 0 keeps every ranked target.
	K int
	// By names the ranking aggregate for OpTopK: min, max, avg, sum,
	// count, rate or last. Empty means avg.
	By string
	// Tier selects range resolution: 0 raw, Tier10 or Tier100 for one
	// averaged point per bucket. Aggregates always read raw data.
	Tier int
	// Limit, when positive, keeps a raw range to its newest Limit points
	// per target: the blocks are read newest first, and no block older
	// than the Limit-th newest point in range is decoded. Series are
	// appended in nondecreasing time, so those are the points a read of
	// the whole range would end with.
	Limit int
}

// Agg is the aggregate summary of the value points a query matched.
type Agg struct {
	Count  int     `json:"count"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Sum    float64 `json:"sum"`
	Avg    float64 `json:"avg"`
	First  float64 `json:"first"`
	Last   float64 `json:"last"`
	FirstT int64   `json:"first_t"`
	LastT  int64   `json:"last_t"`
	// Rate is the per-second slope first→last, 0 with fewer than two
	// points.
	Rate float64 `json:"rate"`
}

// TargetResult is one target's share of a query answer. Points is set
// for OpRange, Agg for aggregate ops (nil when no value point matched).
type TargetResult struct {
	Target string  `json:"target"`
	Points []Point `json:"points,omitempty"`
	Agg    *Agg    `json:"agg,omitempty"`
}

// Result is an assembled query answer.
type Result struct {
	Metric  string         `json:"metric"`
	Op      Op             `json:"op"`
	Targets []TargetResult `json:"targets"`
}

func (q Query) bounds() (lo, hi int64) {
	lo, hi = q.From, q.To
	if hi == 0 {
		hi = math.MaxInt64
	}
	return lo, hi
}

// QueryTarget answers q for a single target from this store alone —
// the per-shard execution half. Unseen targets produce an empty result
// row, identically everywhere.
func (r *reader) QueryTarget(q Query, target string) (TargetResult, error) {
	res := TargetResult{Target: target}
	sr := r.lookup(target, q.Metric)
	if sr == nil {
		return res, nil
	}
	lo, hi := q.bounds()
	var err error
	switch {
	case q.Op != OpRange:
		res.Agg, err = sr.aggregate(lo, hi)
	case q.Tier == Tier10 || q.Tier == Tier100:
		res.Points, err = sr.tierRange(q.Tier, lo, hi)
	default:
		limit := q.Limit
		if limit <= 0 {
			limit = math.MaxInt
		}
		res.Points, err = sr.newest(lo, hi, limit)
	}
	return res, err
}

// tierRange folds the series into buckets of tier points, bucket k
// holding absolute indices [k·tier, (k+1)·tier), gaps included, and
// emits one point per bucket whose first timestamp is in [lo, hi]: the
// average of its value points, summed in append order, or a gap point.
// Blocks wholly before lo are skipped on their headers' counts while
// no bucket in range is open; the fold stops once one opens past hi.
func (sr *series) tierRange(tier int, lo, hi int64) ([]Point, error) {
	// Every bucket emitted opens on a point of the head or of a block
	// that meets [lo, hi], so those points bound the output.
	size := sr.bound(lo, hi)
	var (
		out   []Point
		arr   [BlockPoints]Point // decode buffer
		left  int                // points until the next bucket opens
		first int64              // the open bucket's first timestamp
		emit  bool               // it opened in range
		n     int                // its value points
		sum   float64            // their sum
	)
	for i := 0; i <= len(sr.blocks); i++ {
		pts := sr.head
		if i < len(sr.blocks) {
			if c := sr.infos[i].Count; !emit && sr.infos[i].LastT < lo {
				left = ((left-c)%tier + tier) % tier
				continue
			}
			var err error
			if pts, err = appendBlock(arr[:0], sr.blocks[i]); err != nil {
				return nil, err
			}
		}
		for j := range pts {
			if left == 0 {
				if emit {
					out = appendBucket(out, first, n, sum, size/tier+1)
				}
				if pts[j].T > hi {
					return out, nil
				}
				first, emit, n, sum, left = pts[j].T, pts[j].T >= lo, 0, 0, tier
			}
			left--
			if !pts[j].Gap {
				n++
				sum += pts[j].V
			}
		}
	}
	if emit {
		out = appendBucket(out, first, n, sum, size/tier+1)
	}
	return out, nil
}

// appendBucket emits one tier bucket, making out with room for size
// points on the first.
func appendBucket(out []Point, first int64, n int, sum float64, size int) []Point {
	if out == nil {
		out = make([]Point, 0, size)
	}
	if n == 0 {
		return append(out, Point{T: first, Gap: true})
	}
	return append(out, Point{T: first, V: sum / float64(n)})
}

// bound counts the points of the head and of the blocks that meet
// [lo, hi]: at least as many as the range holds.
func (sr *series) bound(lo, hi int64) int {
	n := len(sr.head)
	for _, info := range sr.infos {
		if info.LastT >= lo && info.FirstT <= hi {
			n += info.Count
		}
	}
	return n
}

// newest returns the last limit points in [lo, hi], in append order,
// nil when there are none: the head's, then each block's meeting the
// range, newest first, taken from the end until limit are held. The
// output is made at the first point in range, with the room the sparse
// index bounds them by.
func (sr *series) newest(lo, hi int64, limit int) ([]Point, error) {
	var out []Point // filled from the end
	k := 0
	take := func(pts []Point) {
		for j := len(pts) - 1; j >= 0; j-- {
			if pts[j].T < lo || pts[j].T > hi {
				continue
			}
			if out == nil {
				out = make([]Point, min(limit, sr.bound(lo, hi)))
				k = len(out)
			}
			k--
			out[k] = pts[j]
			if k == 0 {
				return
			}
		}
	}
	take(sr.head)
	var arr [BlockPoints]Point // decode buffer
	for i := len(sr.blocks) - 1; i >= 0 && (out == nil || k > 0); i-- {
		if info := sr.infos[i]; info.LastT < lo || info.FirstT > hi {
			continue
		}
		pts, err := appendBlock(arr[:0], sr.blocks[i])
		if err != nil {
			return nil, err
		}
		take(pts)
	}
	return out[k:], nil
}

// aggregate folds the value points in [lo, hi], reading fully-contained
// blocks from their headers without decoding.
func (sr *series) aggregate(lo, hi int64) (*Agg, error) {
	var a Agg
	fold := func(t int64, v float64) {
		if a.Count == 0 {
			a.Min, a.Max, a.First, a.FirstT = v, v, v, t
		} else {
			if v < a.Min {
				a.Min = v
			}
			if v > a.Max {
				a.Max = v
			}
		}
		a.Count++
		a.Sum += v
		a.Last, a.LastT = v, t
	}
	var arr [BlockPoints]Point // decode buffer
	for i := 0; i <= len(sr.blocks); i++ {
		pts := sr.head
		if i < len(sr.blocks) {
			info := sr.infos[i]
			if info.LastT < lo || info.FirstT > hi {
				continue
			}
			if info.FirstT >= lo && info.LastT <= hi {
				if info.ValueCount == 0 {
					continue
				}
				if a.Count == 0 {
					a.Min, a.Max = info.Min, info.Max
					a.First, a.FirstT = info.FirstV, info.FirstVT
				} else {
					if info.Min < a.Min {
						a.Min = info.Min
					}
					if info.Max > a.Max {
						a.Max = info.Max
					}
				}
				a.Count += info.ValueCount
				a.Sum += info.Sum
				a.Last, a.LastT = info.LastV, info.LastVT
				continue
			}
			var err error
			if pts, err = appendBlock(arr[:0], sr.blocks[i]); err != nil {
				return nil, err
			}
		}
		for _, pt := range pts {
			if !pt.Gap && pt.T >= lo && pt.T <= hi {
				fold(pt.T, pt.V)
			}
		}
	}
	if a.Count == 0 {
		return nil, nil
	}
	a.Avg = a.Sum / float64(a.Count)
	if a.Count >= 2 && a.LastT > a.FirstT {
		a.Rate = (a.Last - a.First) / (float64(a.LastT-a.FirstT) / 1e9)
	}
	return &a, nil
}

// Query answers q against this store alone: every requested target (or
// all known ones) through QueryTarget, then Assemble.
func (r *reader) Query(q Query) (Result, error) {
	targets := q.Targets
	if len(targets) == 0 {
		targets = r.Targets()
	}
	parts := make([]TargetResult, 0, len(targets))
	for _, t := range targets {
		tr, err := r.QueryTarget(q, t)
		if err != nil {
			return Result{}, err
		}
		parts = append(parts, tr)
	}
	return Assemble(q, parts), nil
}

// aggValue extracts the OpTopK ranking value.
func aggValue(a *Agg, by string) float64 {
	switch by {
	case "min":
		return a.Min
	case "max":
		return a.Max
	case "sum":
		return a.Sum
	case "count":
		return float64(a.Count)
	case "rate":
		return a.Rate
	case "last":
		return a.Last
	default: // avg
		return a.Avg
	}
}

// Assemble merges per-target results into the final answer: rows sorted
// by target name, then top-k ranking when asked. Pure and
// deterministic — the shard supervisor calls it over rows gathered from
// many stores and gets the same bytes a single store would produce.
func Assemble(q Query, parts []TargetResult) Result {
	rows := append([]TargetResult(nil), parts...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Target < rows[j].Target })
	if q.Op == OpTopK {
		ranked := rows[:0]
		for _, r := range rows {
			if r.Agg != nil {
				ranked = append(ranked, r)
			}
		}
		rows = ranked
		sort.SliceStable(rows, func(i, j int) bool {
			vi, vj := aggValue(rows[i].Agg, q.By), aggValue(rows[j].Agg, q.By)
			if vi != vj {
				return vi > vj
			}
			return rows[i].Target < rows[j].Target
		})
		if q.K > 0 && len(rows) > q.K {
			rows = rows[:q.K]
		}
	}
	return Result{Metric: q.Metric, Op: q.Op, Targets: rows}
}
