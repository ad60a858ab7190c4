package output

import (
	"math/rand"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"repro/internal/core/process"
	"repro/internal/core/tsdb"
	"repro/internal/sim"
)

// TestRangedSeriesLimitMatchesReadAll holds ranged /series with a limit,
// which the store answers from its newest blocks, to the read it
// replaced: every point in [from, to], stably sorted by time, the newest
// limit kept (refRanged). The series are empty, head-only, and one to
// five blocks long, with gap points and runs of equal timestamps; the
// windows start and end before, inside, between and after their points;
// the limits are absent, 0, 1, random, and more than the window holds.
func TestRangedSeriesLimitMatchesReadAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	srv := NewServer(process.New())
	for _, n := range []int{0, 1, 17, tsdb.BlockPoints, tsdb.BlockPoints + 1, 3*tsdb.BlockPoints + 40, 5 * tsdb.BlockPoints} {
		st := tsdb.New()
		ts := []int64{sim.Epoch.UnixNano()}
		at := ts[0]
		for i := 0; i < n; i++ {
			at += []int64{0, int64(time.Second), int64(30 * time.Minute)}[rng.Intn(3)]
			if rng.Intn(9) == 0 {
				st.AppendGap("r", "m", at)
			} else {
				st.Append("r", "m", at, float64(rng.Intn(1000))/4)
			}
			ts = append(ts, at)
		}
		ts = append(ts, at+int64(time.Hour))
		srv.SetQuery(func(q tsdb.Query) (tsdb.Result, error) { return st.Query(q) })
		bound := func() string {
			switch k := rng.Intn(5); k {
			case 0:
				return ""
			case 1: // between two instants, or past the last
				return time.Unix(0, ts[rng.Intn(len(ts))]+1).UTC().Format(time.RFC3339Nano)
			default:
				return time.Unix(0, ts[rng.Intn(len(ts))]).UTC().Format(time.RFC3339Nano)
			}
		}
		for c := 0; c < 200; c++ {
			v := url.Values{}
			if from := bound(); from != "" {
				v.Set("from", from)
			}
			if to := bound(); to != "" {
				v.Set("to", to)
			}
			limit := []int{0, 0, 1, 1 + rng.Intn(n+1), n + 1 + rng.Intn(50)}[rng.Intn(5)]
			if limit > 0 || len(v) == 0 || rng.Intn(2) == 0 {
				v.Set("limit", strconv.Itoa(limit))
			}
			q := tsdb.Query{Targets: []string{"r"}, Metric: "m", Op: tsdb.OpRange}
			q.From, _ = parseBound(v.Get("from"))
			q.To, _ = parseBound(v.Get("to"))
			all, err := st.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", "/series/r/m?"+v.Encode(), nil))
			checkBody(t, "ranged /series?"+v.Encode()+" over "+strconv.Itoa(n)+" points", rec, refRanged(all, "r", limit))
		}
	}
}
