// Point bodies (/query and both forms of /series) are appended by hand,
// straight from the store's points, with the bytes
// json.NewEncoder(w).Encode wrote from the wire structs this replaced.
package output

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/core/process"
	"repro/internal/core/tsdb"
)

// pointBytes is about what one point takes, `{"t":"…Z","v":…},` with a
// whole-second timestamp and a value of a few digits. Sized from it,
// read-mix's bodies keep 18 % spare room, and 4 % of them grow once.
const pointBytes = 44

// body is a JSON body under construction in one buffer. err is the
// error encoding/json gives the first value it cannot encode.
type body struct {
	b   []byte
	err error
}

// newBody returns a body with room for points points and a little more.
func newBody(points int) body {
	return body{b: make([]byte, 0, 64+points*pointBytes)}
}

// send answers with the body and a newline in one Write, so nothing is
// written before the whole body is known good, or with 500 and err.
func (e *body) send(w http.ResponseWriter) {
	if e.err != nil {
		http.Error(w, e.err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(e.b, '\n'))
}

// check records the error encoding/json gives v, if any, unless the
// body holds one already.
func (e *body) check(v any) {
	if e.err == nil {
		_, e.err = json.Marshal(v)
	}
}

// str appends s as a JSON string, leaving any s that needs escaping to
// encoding/json, which escapes <, > and & as the Encoder does.
func (e *body) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(append(append(e.b, '"'), s...), '"')
}

// num appends key, then f as encoding/json writes a float64: shortest
// 'f', or 'e' below 1e-6 and from 1e21 with e-09 cut to e-9. NaN and
// ±Inf fail the body.
func (e *body) num(key string, f float64) {
	e.b = append(e.b, key...)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.check(f)
		return
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// point appends {"t":…,"v":…}, with "gap":true for a gap, and a comma
// for end to close. The time takes Time.MarshalJSON's formatter, and
// fails the body where MarshalJSON would: a year outside [0, 9999] or
// a zone a day or more off UTC.
func (e *body) point(t time.Time, v float64, gap bool) {
	n := len(e.b) + len(`{"t":"`)
	e.b = append(t.AppendFormat(append(e.b, `{"t":"`...), time.RFC3339Nano), '"')
	if e.b[n+4] != '-' || e.b[len(e.b)-2] != 'Z' {
		e.check(t)
	}
	e.num(`,"v":`, v)
	if gap {
		e.b = append(e.b, `,"gap":true`...)
	}
	e.b = append(e.b, '}', ',')
}

// end closes a list of comma-terminated elements with c.
func (e *body) end(c byte) {
	if n := len(e.b) - 1; e.b[n] == ',' {
		e.b = e.b[:n]
	}
	e.b = append(e.b, c)
}

// points appends store points as UTC instants, in the order given.
func (e *body) points(pts []tsdb.Point) {
	e.b = append(e.b, '[')
	for _, pt := range pts {
		e.point(time.Unix(0, pt.T).UTC(), pt.V, pt.Gap)
	}
	e.end(']')
}

// series appends a series' values and gaps in the order a stable sort
// by time of the values, then the gaps, gives: the merge of the two
// runs, each sorted, values first at equal times.
func (e *body) series(s *process.Series) {
	if !slices.IsSortedFunc(s.Times, time.Time.Compare) || !slices.IsSortedFunc(s.Gaps, time.Time.Compare) {
		idx := make([]int, len(s.Values))
		for i := range idx {
			idx[i] = i
		}
		slices.SortStableFunc(idx, func(a, b int) int { return s.Times[a].Compare(s.Times[b]) })
		c := &process.Series{Gaps: slices.Clone(s.Gaps)}
		slices.SortStableFunc(c.Gaps, time.Time.Compare)
		for _, i := range idx {
			c.Append(s.Times[i], s.Values[i])
		}
		s = c
	}
	e.b = append(e.b, '[')
	for i, j := 0, 0; i < len(s.Values) || j < len(s.Gaps); {
		if j < len(s.Gaps) && (i == len(s.Values) || s.Gaps[j].Before(s.Times[i])) {
			e.point(s.Gaps[j], 0, true)
			j++
		} else {
			e.point(s.Times[i], s.Values[i], false)
			i++
		}
	}
	e.end(']')
}

// result appends a query answer, leaving out a target's empty points
// and nil agg.
func (e *body) result(res tsdb.Result) {
	e.b = append(e.b, `{"metric":`...)
	e.str(res.Metric)
	e.b = append(e.b, `,"op":`...)
	e.str(string(res.Op))
	e.b = append(e.b, `,"targets":[`...)
	for _, tr := range res.Targets {
		e.b = append(e.b, `{"target":`...)
		e.str(tr.Target)
		if len(tr.Points) > 0 {
			e.b = append(e.b, `,"points":`...)
			e.points(tr.Points)
		}
		if a := tr.Agg; a != nil {
			e.b = strconv.AppendInt(append(e.b, `,"agg":{"count":`...), int64(a.Count), 10)
			e.num(`,"min":`, a.Min)
			e.num(`,"max":`, a.Max)
			e.num(`,"sum":`, a.Sum)
			e.num(`,"avg":`, a.Avg)
			e.num(`,"first":`, a.First)
			e.num(`,"last":`, a.Last)
			e.b = strconv.AppendInt(append(e.b, `,"first_t":`...), a.FirstT, 10)
			e.b = strconv.AppendInt(append(e.b, `,"last_t":`...), a.LastT, 10)
			e.num(`,"rate":`, a.Rate)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, '}', ',')
	}
	e.end(']')
	e.b = append(e.b, '}')
}
