// Benchmarks for the compressed long-horizon series store: append
// throughput, on-disk compression against the raw CSV the pre-store
// pipeline wrote, and cold query latency straight off the disk mirror.
// The latency numbers matter against one yardstick: the paper's
// 30-minute collection cycle. Nothing here enforces a latency; the one
// floor this file does enforce, compression, is a test.
package mantra_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core/tsdb"
)

// benchSeries generates a cycle-cadence series shaped like the
// monitor's counters: mostly 30-minute steps with drift, bursts and
// resets, plus occasional gap cycles.
func benchSeries(seed int64, n int) []tsdb.Point {
	r := rand.New(rand.NewSource(seed))
	ts := time.Date(1998, 10, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	v := float64(r.Intn(4000))
	pts := make([]tsdb.Point, 0, n)
	for i := 0; i < n; i++ {
		ts += 1800 * 1e9
		if r.Intn(40) == 0 {
			pts = append(pts, tsdb.Point{T: ts, Gap: true})
			continue
		}
		switch r.Intn(10) {
		case 0:
			v += float64(r.Intn(300)) // burst
		case 1:
			v = 0 // reset
		default:
			v += float64(r.Intn(7)) - 3
			if v < 0 {
				v = 0
			}
		}
		pts = append(pts, tsdb.Point{T: ts, V: v})
	}
	return pts
}

func appendAll(st *tsdb.Store, target string, pts []tsdb.Point) {
	for _, pt := range pts {
		if pt.Gap {
			st.AppendGap(target, "routes", pt.T)
		} else {
			st.Append(target, "routes", pt.T, pt.V)
		}
	}
}

// BenchmarkStoreAppend measures raw ingest: one point through the
// delta-of-delta/XOR encoder, block sealing and downsampling included.
func BenchmarkStoreAppend(b *testing.B) {
	pts := benchSeries(1, b.N)
	st := tsdb.New()
	b.ResetTimer()
	for _, pt := range pts {
		if pt.Gap {
			st.AppendGap("fixw", "routes", pt.T)
		} else {
			st.Append("fixw", "routes", pt.T, pt.V)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(pts)), "points")
}

// csvToStoreRatio appends pts to a fresh store and returns the size of
// the CSV rows cmd/figures used to write over the store's compressed
// bytes.
func csvToStoreRatio(pts []tsdb.Point) float64 {
	st := tsdb.New()
	appendAll(st, "fixw", pts)
	var csv strings.Builder
	for _, pt := range pts {
		if pt.Gap {
			fmt.Fprintf(&csv, "%s,\n", time.Unix(0, pt.T).UTC().Format(time.RFC3339))
			continue
		}
		fmt.Fprintf(&csv, "%s,%g\n", time.Unix(0, pt.T).UTC().Format(time.RFC3339), pt.V)
	}
	return float64(csv.Len()) / float64(st.CompressedBytes("fixw", "routes"))
}

// tenYears is ~175k cycles ≈ 10 years at the paper's cadence.
const tenYears = 175_000

// TestStoreCompressionFloor holds ten years of 30-minute cycles to the
// store's acceptance floor: 5x smaller than the raw CSV (measured 9.1x).
func TestStoreCompressionFloor(t *testing.T) {
	if ratio := csvToStoreRatio(benchSeries(2, tenYears)); ratio < 5 {
		t.Fatalf("compression ratio %.2fx below the 5x floor", ratio)
	}
}

// BenchmarkStoreCompression reports that ratio and what computing it
// costs.
func BenchmarkStoreCompression(b *testing.B) {
	pts := benchSeries(2, tenYears)
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = csvToStoreRatio(pts)
	}
	b.ReportMetric(ratio, "csv-to-store-x")
	b.ReportMetric(float64(len(pts)), "points")
}

// BenchmarkStoreColdQuery opens the disk mirror read-only — no warm
// process, no page of history in memory — and runs a full range scan
// and a bounded aggregate. The numbers to watch: both must land far
// under the 30-minute collection cycle (sub-millisecond in practice),
// so an operator can interrogate years of history mid-incident.
func BenchmarkStoreColdQuery(b *testing.B) {
	dir := b.TempDir()
	pts := benchSeries(3, 50_000)
	st := tsdb.New()
	if err := st.AttachDir(dir, false); err != nil {
		b.Fatal(err)
	}
	appendAll(st, "fixw", pts)
	if err := st.CloseDir(); err != nil {
		b.Fatal(err)
	}

	b.Run("open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tsdb.Open(dir); err != nil {
				b.Fatal(err)
			}
		}
	})
	cold, err := tsdb.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	mid := pts[len(pts)/2].T
	b.Run("range", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := cold.Query(tsdb.Query{Metric: "routes", Op: tsdb.OpRange})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Targets[0].Points) == 0 {
				b.Fatal("empty range")
			}
		}
	})
	b.Run("avg-half", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := cold.Query(tsdb.Query{Metric: "routes", Op: tsdb.OpAvg, From: mid})
			if err != nil {
				b.Fatal(err)
			}
			if res.Targets[0].Agg == nil {
				b.Fatal("empty aggregate")
			}
		}
	})
}

// BenchmarkStoreTopK ranks a 50-target fleet by aggregate over full
// history — the /query?op=topk path that powers "which routers are
// busiest" during an incident.
func BenchmarkStoreTopK(b *testing.B) {
	st := tsdb.New()
	for i := 0; i < 50; i++ {
		appendAll(st, fmt.Sprintf("dom%02d-gw", i), benchSeries(int64(10+i), 5_000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Query(tsdb.Query{Metric: "routes", Op: tsdb.OpTopK, K: 5, By: "max"})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Targets) != 5 {
			b.Fatalf("topk returned %d targets", len(res.Targets))
		}
	}
}
