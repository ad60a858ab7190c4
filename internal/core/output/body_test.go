package output

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core/process"
	"repro/internal/core/tables"
	"repro/internal/core/tsdb"
	"repro/internal/sim"
)

// The wire structs the point bodies were encoded from, through
// json.NewEncoder(w).Encode, before the appender: its reference.
type refPoint struct {
	T   time.Time `json:"t"`
	V   float64   `json:"v"`
	Gap bool      `json:"gap,omitempty"`
}

type refTarget struct {
	Target string     `json:"target"`
	Points []refPoint `json:"points,omitempty"`
	Agg    *tsdb.Agg  `json:"agg,omitempty"`
}

type refResponse struct {
	Metric  string      `json:"metric"`
	Op      string      `json:"op"`
	Targets []refTarget `json:"targets"`
}

// refPoints converts store points as the old handlers did.
func refPoints(pts []tsdb.Point) []refPoint {
	var out []refPoint
	for _, pt := range pts {
		out = append(out, refPoint{T: time.Unix(0, pt.T).UTC(), V: pt.V, Gap: pt.Gap})
	}
	return out
}

// refQuery is the old /query body's value.
func refQuery(res tsdb.Result) refResponse {
	out := refResponse{Metric: res.Metric, Op: string(res.Op), Targets: make([]refTarget, 0, len(res.Targets))}
	for _, tr := range res.Targets {
		out.Targets = append(out.Targets, refTarget{Target: tr.Target, Points: refPoints(tr.Points), Agg: tr.Agg})
	}
	return out
}

// refRanged is the old ranged /series body's value: the target's rows
// joined, stably sorted by time, the newest limit kept.
func refRanged(res tsdb.Result, target string, limit int) []refPoint {
	pts := make([]refPoint, 0)
	for _, tr := range res.Targets {
		if tr.Target == target {
			pts = append(pts, refPoints(tr.Points)...)
		}
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].T.Before(pts[j].T) })
	if limit > 0 && len(pts) > limit {
		pts = pts[len(pts)-limit:]
	}
	return pts
}

// refSeries is the old /series body's value: values, then gaps, stably
// sorted by time.
func refSeries(s *process.Series) []refPoint {
	pts := make([]refPoint, 0, s.Len()+len(s.Gaps))
	for i := range s.Values {
		pts = append(pts, refPoint{T: s.Times[i], V: s.Values[i]})
	}
	for _, g := range s.Gaps {
		pts = append(pts, refPoint{T: g, Gap: true})
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].T.Before(pts[j].T) })
	return pts
}

// checkBody holds a response to what the Encoder made of want: the same
// bytes, or where it failed, 500 with its error text.
func checkBody(t *testing.T, what string, rec *httptest.ResponseRecorder, want any) {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(want); err != nil {
		if rec.Code != 500 || rec.Body.String() != err.Error()+"\n" {
			t.Fatalf("%s: %d %q, want 500 %q", what, rec.Code, rec.Body, err)
		}
		return
	}
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" || !bytes.Equal(rec.Body.Bytes(), b.Bytes()) {
		t.Fatalf("%s: %d %q\nwant %q", what, rec.Code, rec.Body, b.Bytes())
	}
}

// fuzzZones are the zones series times are shown in: UTC, an offset
// with minutes, one with seconds RFC 3339 drops, and one of more than a
// day, which Time.MarshalJSON refuses.
var fuzzZones = []*time.Location{time.UTC, time.FixedZone("IST", 5*3600+1800), time.FixedZone("LMT", -17*60-30), time.FixedZone("bad", -25*3600)}

// pointCase decodes raw, 17 bytes a point, into a query result and a
// series of the same points. A point is 8 bytes of timestamp, 8 of
// value bits and a flags byte: 1 marks a gap, 2 starts a new target
// (the first point always does), 4 gives the target an agg derived
// from the point, and 8 drops the point itself (and leaves an empty
// target's points empty, not nil). The series shows its
// times in zone, shift years on.
func pointCase(metric, op, target string, shift int16, zone uint8, raw []byte) (tsdb.Result, *process.Series) {
	res := tsdb.Result{Metric: metric, Op: tsdb.Op(op)}
	s := &process.Series{}
	loc := fuzzZones[int(zone)%len(fuzzZones)]
	for ; len(raw) >= 17; raw = raw[17:] {
		flags := raw[16]
		pt := tsdb.Point{T: int64(binary.LittleEndian.Uint64(raw)), V: math.Float64frombits(binary.LittleEndian.Uint64(raw[8:])), Gap: flags&1 != 0}
		if flags&2 != 0 || len(res.Targets) == 0 {
			res.Targets = append(res.Targets, tsdb.TargetResult{Target: target + strconv.Itoa(len(res.Targets))})
		}
		tr := &res.Targets[len(res.Targets)-1]
		if flags&4 != 0 {
			v := pt.V
			tr.Agg = &tsdb.Agg{Count: int(int32(pt.T)), Min: v, Max: -v, Sum: v * 3, Avg: v / 3, First: v * 1e10, Last: v * 1e-10, FirstT: pt.T, LastT: ^pt.T, Rate: v + 1}
		}
		if flags&8 != 0 {
			if tr.Points == nil {
				tr.Points = []tsdb.Point{}
			}
			continue
		}
		tr.Points = append(tr.Points, pt)
		tm := time.Unix(0, pt.T).In(loc).AddDate(int(shift), 0, 0)
		if pt.Gap {
			s.Gaps = append(s.Gaps, tm)
		} else {
			s.Append(tm, pt.V)
		}
	}
	return res, s
}

// pointRec encodes one point of a pointCase input.
func pointRec(t int64, v float64, flags byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(t))
	return append(binary.LittleEndian.AppendUint64(b, math.Float64bits(v)), flags)
}

// FuzzPointBody holds the appender to encoding/json: for random query
// results and series, /query, ranged /series and /series must answer
// with the bytes json.NewEncoder(w).Encode wrote from the wire structs
// the appender replaced, or where that failed, 500 with its error.
func FuzzPointBody(f *testing.F) {
	hour := int64(time.Hour)
	epoch := sim.Epoch.UnixNano()
	var ordered []byte
	for i := int64(0); i < 12; i++ {
		ordered = append(ordered, pointRec(epoch+i*hour, float64(i*i)-7.25, byte(i%5/4))...)
	}
	specials := []float64{math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.99e-7, 1e21, 999999999999999999999, math.MaxFloat64, -math.MaxFloat64, 1.5e-10, 123.456, -1e300}
	var special []byte
	for i, v := range specials {
		special = append(special, pointRec(epoch+int64(i)*1e9+int64(i)*123456789, v, byte(i%3&2))...)
	}
	ties := append(append(append(pointRec(epoch+hour, 1, 1), pointRec(epoch, 2, 0)...), pointRec(epoch+hour, 3, 0)...), pointRec(epoch, 4, 1)...)
	aggOnly := append(append(pointRec(epoch, 2.5, 4|8), pointRec(epoch, 0, 2|8)...), pointRec(epoch+hour, 7, 2|4)...)
	for _, c := range []struct {
		metric, op, target string
		shift              int16
		zone               uint8
		raw                []byte
	}{
		{"routes", "range", "fixw", 0, 0, ordered},
		{"routes", "range", "fixw", 0, 7, special},
		{"bandwidth_kbps", "max", "ucsb-r1", 0, 2, append(special, aggOnly...)},
		{"routes", "range", "<b>&amp;", 0, 1, ties},
		{"\u2028up\u2029", "range", "é\u2028", 0, 0, special},
		{"a b ", "avg", " ", 0, 0, aggOnly},
		{"\xff\xfe", "range", "bad\xc3(", 0, 0, ordered},
		{"q\"\\\x01\n\t\x7f", "topk", "\x00", 0, 3, ordered},
		{"routes", "range", "fixw", 0, 0, nil},
		{"routes", "count", "", 0, 0, pointRec(0, 0, 2|8)},
		{"routes", "range", "fixw", 0, 3, ties},
		{"routes", "range", "fixw", 9000, 0, ordered},
		{"routes", "range", "fixw", -2100, 0, ordered},
		{"a<b", "range", "c>d", -1990, 1, ordered},
		{"a&b", "range", "c<d", 0, 0, ties},
		{"routes", "range", "fixw", 0, 5, pointRec(epoch, math.NaN(), 0)},
		{"routes", "sum", "fixw", 0, 0, pointRec(epoch, math.Inf(-1), 4|8)},
		{"routes", "range", "fixw", 0, 1, append(append([]byte(nil), special...), ordered...)},
		{"routes", "range", "fixw", 0, 2, pointRec(math.MinInt64, 1, 0)},
		{"routes", "range", "fixw", 0, 2, pointRec(math.MaxInt64, 1, 0)},
	} {
		f.Add(c.metric, c.op, c.target, c.shift, c.zone, c.raw)
	}
	srv := NewServer(process.New())
	f.Fuzz(func(t *testing.T, metric, op, target string, shift int16, zone uint8, raw []byte) {
		res, s := pointCase(metric, op, target, shift, zone, raw)
		srv.SetQuery(func(tsdb.Query) (tsdb.Result, error) { return res, nil })
		srv.SetSeries(func(string, process.Metric) *process.Series { return s })
		get := func(url string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			return rec
		}
		checkBody(t, "/query", get("/query?metric=m"), refQuery(res))
		checkBody(t, "/series", get("/series/r/m"), refSeries(s))
		// Every row named r is one the ranged form joins.
		for i := range res.Targets {
			res.Targets[i].Target = "r"
		}
		limit := int(zone) % 7
		checkBody(t, "ranged /series", get("/series/r/m?limit="+strconv.Itoa(limit)), refRanged(res, "r", limit))
	})
}

// TestUnencodableBodyAnswers500: a value encoding/json cannot encode
// (NaN, ±Inf) makes the body fail whole, so the client gets 500 and
// the error, not a 200 with nothing in it, from the appender and from
// writeJSON alike.
func TestUnencodableBodyAnswers500(t *testing.T) {
	s := NewServer(process.New())
	s.SetQuery(func(q tsdb.Query) (tsdb.Result, error) {
		return tsdb.Result{Metric: q.Metric, Op: q.Op, Targets: []tsdb.TargetResult{
			{Target: "fixw", Points: []tsdb.Point{{T: sim.Epoch.UnixNano(), V: 1}, {T: sim.Epoch.UnixNano() + 1e9, V: math.NaN()}}},
		}}, nil
	})
	s.SetHealth(func() any { return map[string]float64{"fixw": math.Inf(1)} })
	for url, want := range map[string]string{
		"/query?metric=routes":        "json: unsupported value: NaN\n",
		"/series/fixw/routes?limit=5": "json: unsupported value: NaN\n",
		"/health":                     "json: unsupported value: +Inf\n",
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 500 || rec.Body.String() != want {
			t.Errorf("%s: %d %q, want 500 %q", url, rec.Code, rec.Body, want)
		}
	}
}

// queryServer returns a server over one target's routes series of n
// points, every 41st a gap.
func queryServer(n int) *Server {
	p := process.New()
	routes := make(tables.RouteTable, 60)
	for i := 0; i < n; i++ {
		at := sim.Epoch.Add(time.Duration(i) * 30 * time.Minute)
		if i%41 == 40 {
			p.MarkGap("fixw", at)
			continue
		}
		p.Ingest(&tables.Snapshot{Target: "fixw", At: at, Routes: routes[:10+i*7%50]})
	}
	p.Publish()
	return NewServer(p)
}

// TestQueryBodyAllocsFlat: a /query range body is appended into one
// buffer sized from the point count and sent in one Write, and the
// store sizes its output from the sparse index, so a request makes as
// many allocations over 2 048 points as over 64, give or take the block
// decode buffer a head-only series does without.
func TestQueryBodyAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		s := queryServer(n)
		req := httptest.NewRequest("GET", "/query?metric=routes&target=fixw", nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if got := strings.Count(rec.Body.String(), `{"t":`); rec.Code != 200 || got != n {
			t.Fatalf("/query over %d points: %d with %d points", n, rec.Code, got)
		}
		return testing.AllocsPerRun(20, func() { s.ServeHTTP(httptest.NewRecorder(), req) })
	}
	short, long := allocs(64), allocs(2048)
	if math.Abs(long-short) > 2 {
		t.Fatalf("/query range allocates %.0f times over 2 048 points, %.0f over 64; want within 2", long, short)
	}
	t.Logf("/query range: %.0f allocations over 64 points, %.0f over 2 048", short, long)
}

// BenchmarkQueryBody serves a /query range over 2 048 stored points.
func BenchmarkQueryBody(b *testing.B) {
	s := queryServer(2048)
	req := httptest.NewRequest("GET", "/query?metric=routes&target=fixw", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(httptest.NewRecorder(), req)
	}
}
