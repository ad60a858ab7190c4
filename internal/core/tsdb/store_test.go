package tsdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fill appends a generated series to a store, returning the points.
func fill(st *Store, target, metric string, seed int64, n int) []Point {
	pts := genPoints(rand.New(rand.NewSource(seed)), n)
	for _, pt := range pts {
		if pt.Gap {
			st.AppendGap(target, metric, pt.T)
		} else {
			st.Append(target, metric, pt.T, pt.V)
		}
	}
	return pts
}

func TestStoreMaterializeAcrossSeals(t *testing.T) {
	st := New()
	pts := fill(st, "fixw", "routes", 1, 3*BlockPoints+17)
	if got := st.Len("fixw", "routes"); got != len(pts) {
		t.Fatalf("Len = %d, want %d", got, len(pts))
	}
	got, err := st.Materialize("fixw", "routes")
	if err != nil {
		t.Fatal(err)
	}
	if !pointsEqual(pts, got) {
		t.Fatal("materialized series differs from appended points")
	}
	if m, err := st.Materialize("ghost", "routes"); err != nil || m != nil {
		t.Fatalf("unseen series = %v, %v", m, err)
	}
}

func TestStoreTargetsSorted(t *testing.T) {
	st := New()
	for _, name := range []string{"zulu", "alpha", "mike"} {
		st.Append(name, "routes", 1e18, 1)
	}
	if got := st.Targets(); !reflect.DeepEqual(got, []string{"alpha", "mike", "zulu"}) {
		t.Fatalf("Targets = %v", got)
	}
}

// TestStoreExportImportIdentity proves transfer state round-trips: the
// imported store answers every query byte-identically, including tier
// ranges whose buckets must rebuild on absolute point indices.
func TestStoreExportImportIdentity(t *testing.T) {
	a := New()
	fill(a, "fixw", "routes", 3, 2*BlockPoints+91)
	fill(a, "fixw", "sessions", 4, BlockPoints/2)
	fill(a, "ucsb-r1", "routes", 5, 4*BlockPoints+1)

	b := New() // the whole-store export, imported target by target
	for target, ts := range a.Export().Targets {
		if err := b.ImportTarget(target, ts); err != nil {
			t.Fatal(err)
		}
	}
	c := New() // per-target path, the handoff seam
	for _, target := range a.Targets() {
		if err := c.ImportTarget(target, a.ExportTarget(target)); err != nil {
			t.Fatal(err)
		}
	}

	queries := []Query{
		{Metric: "routes", Op: OpRange},
		{Metric: "routes", Op: OpRange, Tier: Tier10},
		{Metric: "routes", Op: OpRange, Tier: Tier100},
		{Metric: "routes", Op: OpAvg},
		{Metric: "routes", Op: OpRate},
		{Metric: "sessions", Op: OpMax},
		{Metric: "routes", Op: OpTopK, K: 1, By: "sum"},
	}
	for _, q := range queries {
		want, err := a.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for name, other := range map[string]*Store{"Export": b, "ExportTarget": c} {
			got, err := other.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: query %+v differs after transfer", name, q)
			}
		}
	}
}

// TestQueryAggregates pins exact aggregate semantics on a hand-built
// series.
func TestQueryAggregates(t *testing.T) {
	st := New()
	base := time.Date(2001, 3, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	vals := []float64{10, 20, 5, 5, 40}
	for i, v := range vals {
		st.Append("r1", "m", base+int64(i)*1e9, v)
	}
	st.AppendGap("r1", "m", base+5*1e9)

	agg := func(op Op) *Agg {
		res, err := st.Query(Query{Metric: "m", Op: op})
		if err != nil {
			t.Fatal(err)
		}
		return res.Targets[0].Agg
	}
	a := agg(OpAvg)
	if a.Count != 5 || a.Min != 5 || a.Max != 40 || a.Sum != 80 || a.Avg != 16 {
		t.Fatalf("agg = %+v", a)
	}
	if a.First != 10 || a.Last != 40 {
		t.Fatalf("endpoints = %+v", a)
	}
	// rate: (40-10)/4s
	if r := agg(OpRate); r.Rate != 7.5 {
		t.Fatalf("rate = %v", r.Rate)
	}

	// Bounded: only the middle three points.
	res, err := st.Query(Query{Metric: "m", Op: OpSum, From: base + 1e9, To: base + 3*1e9})
	if err != nil {
		t.Fatal(err)
	}
	if a := res.Targets[0].Agg; a.Count != 3 || a.Sum != 30 {
		t.Fatalf("bounded agg = %+v", a)
	}

	// Out of range: nil Agg.
	res, err = st.Query(Query{Metric: "m", Op: OpSum, From: base + 100e9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets[0].Agg != nil {
		t.Fatal("empty range produced an aggregate")
	}

	// Range includes the gap marker.
	res, err = st.Query(Query{Metric: "m", Op: OpRange})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Targets[0].Points
	if len(pts) != 6 || !pts[5].Gap {
		t.Fatalf("range = %v", pts)
	}
}

// TestQueryHeaderFastPathMatchesDecode forces both aggregate paths —
// header-only for contained blocks, decode for partial overlap — to
// agree on the same data.
func TestQueryHeaderFastPathMatchesDecode(t *testing.T) {
	st := New()
	pts := fill(st, "r1", "m", 11, 3*BlockPoints)
	lo, hi := pts[0].T, pts[len(pts)-1].T
	whole, err := st.Query(Query{Metric: "m", Op: OpAvg}) // header fast path
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := st.Query(Query{Metric: "m", Op: OpAvg, From: lo, To: hi}) // same span, still contained
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, bounded) {
		t.Fatal("contained-bounds aggregate differs from unbounded")
	}
	// Shift the lower bound one nanosecond past the first point: the
	// first block must now decode, and the fold must drop exactly one
	// point.
	part, err := st.Query(Query{Metric: "m", Op: OpCount, From: pts[0].T + 1, To: hi})
	if err != nil {
		t.Fatal(err)
	}
	wholeCount, err := st.Query(Query{Metric: "m", Op: OpCount})
	if err != nil {
		t.Fatal(err)
	}
	drop := 0
	if !pts[0].Gap {
		drop = 1
	}
	if part.Targets[0].Agg.Count != wholeCount.Targets[0].Agg.Count-drop {
		t.Fatalf("partial count %d, whole %d", part.Targets[0].Agg.Count, wholeCount.Targets[0].Agg.Count)
	}
}

// TestTierRange checks downsampled ranges: one point per bucket, bucket
// averages, gap-only buckets as gap points.
func TestTierRange(t *testing.T) {
	st := New()
	base := int64(1e18)
	for i := 0; i < 25; i++ {
		st.Append("r1", "m", base+int64(i)*1e9, float64(i))
	}
	res, err := st.Query(Query{Metric: "m", Op: OpRange, Tier: Tier10})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Targets[0].Points
	if len(pts) != 3 {
		t.Fatalf("tier10 points = %d", len(pts))
	}
	if pts[0].V != 4.5 || pts[1].V != 14.5 || pts[2].V != 22 {
		t.Fatalf("tier10 averages = %v", pts)
	}
	if pts[0].T != base || pts[1].T != base+10*1e9 {
		t.Fatalf("bucket anchors = %v", pts)
	}

	gapped := New()
	for i := 0; i < 10; i++ {
		gapped.AppendGap("r1", "m", base+int64(i)*1e9)
	}
	gapped.Append("r1", "m", base+10*1e9, 7)
	res, err = gapped.Query(Query{Metric: "m", Op: OpRange, Tier: Tier10})
	if err != nil {
		t.Fatal(err)
	}
	pts = res.Targets[0].Points
	if len(pts) != 2 || !pts[0].Gap || pts[1].V != 7 {
		t.Fatalf("gap bucket = %v", pts)
	}
}

// TestSplitExecutionMatchesSingleStore is the shard-invariance property
// at the unit level: partition targets across any number of stores,
// QueryTarget each shard locally, Assemble the parts — identical result
// to one store holding everything, for every op.
func TestSplitExecutionMatchesSingleStore(t *testing.T) {
	targets := []string{"r1", "r2", "r3", "r4", "r5", "r6", "r7"}
	one := New()
	for i, name := range targets {
		fill(one, name, "m", int64(20+i), BlockPoints+37*i)
	}
	ops := []Query{
		{Metric: "m", Op: OpRange},
		{Metric: "m", Op: OpAvg},
		{Metric: "m", Op: OpTopK, K: 3, By: "max"},
		{Metric: "m", Op: OpTopK, K: 2, By: "rate"},
		{Metric: "m", Op: OpCount, From: 1e18, To: 2e18},
	}
	for _, shards := range []int{1, 2, 4, 7} {
		parted := make([]*Store, shards)
		for i := range parted {
			parted[i] = New()
		}
		for i, name := range targets {
			fill(parted[i%shards], name, "m", int64(20+i), BlockPoints+37*i)
		}
		for _, q := range ops {
			q.Targets = targets
			want, err := one.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			var parts []TargetResult
			for i, name := range targets {
				tr, err := parted[i%shards].QueryTarget(q, name)
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, tr)
			}
			if got := Assemble(q, parts); !reflect.DeepEqual(want, got) {
				t.Fatalf("%d shards, op %s/%s: split result differs", shards, q.Op, q.By)
			}
		}
	}
}

// TestTopKOrdering pins the ranking: descending by the ranking value,
// target name ascending on ties, truncated to K.
func TestTopKOrdering(t *testing.T) {
	st := New()
	st.Append("b", "m", 1e18, 10)
	st.Append("a", "m", 1e18, 10)
	st.Append("c", "m", 1e18, 30)
	st.Append("d", "m", 1e18, 5)
	res, err := st.Query(Query{Metric: "m", Op: OpTopK, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, tr := range res.Targets {
		order = append(order, tr.Target)
	}
	if !reflect.DeepEqual(order, []string{"c", "a", "b"}) {
		t.Fatalf("topk order = %v", order)
	}
}

// TestCompressionRatio demands the sealed representation beat the raw
// CSV the pre-store pipeline wrote by at least 5x on realistic series —
// the acceptance floor for the long-horizon store.
func TestCompressionRatio(t *testing.T) {
	st := New()
	pts := fill(st, "fixw", "routes", 42, 40*BlockPoints)
	var csv strings.Builder
	for _, pt := range pts {
		if pt.Gap {
			fmt.Fprintf(&csv, "%s,\n", time.Unix(0, pt.T).UTC().Format(time.RFC3339))
			continue
		}
		fmt.Fprintf(&csv, "%s,%g\n", time.Unix(0, pt.T).UTC().Format(time.RFC3339), pt.V)
	}
	sr := st.lookup("fixw", "routes")
	compressed := 0
	for _, blk := range sr.blocks {
		compressed += len(blk)
	}
	compressed += 16 * len(sr.head) // generous raw bound for the unsealed tail
	ratio := float64(csv.Len()) / float64(compressed)
	if ratio < 5 {
		t.Fatalf("compression ratio %.2fx < 5x (csv %d bytes, store %d bytes)", ratio, csv.Len(), compressed)
	}
	t.Logf("compression ratio %.1fx (csv %d bytes, store %d bytes)", ratio, csv.Len(), compressed)
}

// BenchmarkScan decodes a read-mix-sized history (9 100 points, 35
// sealed blocks and a head) block by block.
func BenchmarkScan(b *testing.B) {
	st := New()
	fill(st, "fixw", "routes", 12, 9100)
	b.ReportAllocs()
	for b.Loop() {
		n := 0
		_ = st.Scan("fixw", "routes", func(pts []Point) { n += len(pts) })
	}
}
