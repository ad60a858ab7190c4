package tsdb

import (
	"math/rand"
	"reflect"
	"testing"
)

// genRuns is genPoints with the shapes tier buckets turn on: runs of
// gaps long enough to empty whole tier-10 and tier-100 buckets, and
// repeated timestamps.
func genRuns(r *rand.Rand, n int) []Point {
	pts := genPoints(r, n)
	for i := 0; i < len(pts); i++ {
		switch r.Intn(200) {
		case 0:
			for end := min(i+1+r.Intn(150), len(pts)); i < end; i++ {
				pts[i] = Point{T: pts[i].T, Gap: true}
			}
		case 1:
			if i > 0 {
				pts[i].T = pts[i-1].T
			}
		}
	}
	return pts
}

// tierBound maps a fuzzed selector onto a query bound: unbounded (0),
// just before or after the history, or a point's timestamp moved back,
// forward or not at all by a nanosecond — so bounds land mid-bucket,
// on a bucket's first point and mid-block.
func tierBound(pts []Point, sel uint16) int64 {
	if sel == 0 || len(pts) == 0 {
		return 0
	}
	i := int(sel>>2) % (len(pts) + 2)
	switch i {
	case 0:
		return pts[0].T - 1e9
	case len(pts) + 1:
		return pts[len(pts)-1].T + 1e9
	}
	return pts[i-1].T + int64(sel&3) - 1
}

// checkTierRange compares every tier read of one series, through the
// live store, an exported and imported copy, and a mirror opened cold,
// with the stored buckets the store's appends once folded.
func checkTierRange(t *testing.T, seed int64, n int, fromSel, toSel uint16) {
	pts := genRuns(rand.New(rand.NewSource(seed)), n)
	live, mirror := New(), t.TempDir()
	if err := live.AttachDir(mirror, false); err != nil {
		t.Fatal(err)
	}
	appendPoints(live, pts)
	if err := live.CloseDir(); err != nil {
		t.Fatal(err)
	}
	imported := New()
	if err := imported.ImportTarget("fixw", live.ExportTarget("fixw")); err != nil {
		t.Fatal(err)
	}
	cold, err := Open(mirror)
	if err != nil {
		t.Fatal(err)
	}
	sealed := pts[:len(pts)/BlockPoints*BlockPoints] // a mirror holds sealed blocks only
	from, to := tierBound(pts, fromSel), tierBound(pts, toSel)
	for _, tier := range []int{Tier10, Tier100} {
		q := Query{Metric: "routes", Op: OpRange, Tier: tier, From: from, To: to}
		lo, hi := q.bounds()
		for _, c := range []struct {
			name string
			st   *Store
			pts  []Point
		}{{"live", live, pts}, {"imported", imported, pts}, {"opened", cold, sealed}} {
			got, err := c.st.QueryTarget(q, "fixw")
			if err != nil {
				t.Fatal(err)
			}
			var want []Point
			if len(c.pts) > 0 {
				want = refTierRange(refTiers(c.pts, tier), lo, hi)
			}
			if !reflect.DeepEqual(got.Points, want) {
				t.Fatalf("seed %d, %d points, tier %d, [%d, %d], %s store: %d points, reference %d\ngot  %v\nwant %v",
					seed, n, tier, from, to, c.name, len(got.Points), len(want), got.Points, want)
			}
		}
	}
	k := int(uint64(seed) * 0x9e3779b9 % uint64(len(pts)+1))
	checkViewFrozen(t, seed, pts, k, from, to)
}

// appendPoints writes pts to one series of st in order.
func appendPoints(st *Store, pts []Point) {
	for _, pt := range pts {
		if pt.Gap {
			st.AppendGap("fixw", "routes", pt.T)
		} else {
			st.Append("fixw", "routes", pt.T, pt.V)
		}
	}
}

// checkViewFrozen takes a View of a store after its first k points and
// goes on writing the store: the rest of the points and a block more,
// so at least one seal follows the view, then a handoff import over
// the target, then its removal. Every read of the view — raw range,
// aggregate, both tiers — must still answer exactly as over those k
// points: raw against the points themselves, the aggregate against a
// store that only ever held them, the tiers against the reference
// buckets.
func checkViewFrozen(t *testing.T, seed int64, pts []Point, k int, from, to int64) {
	st, ref, later := New(), New(), New()
	appendPoints(st, pts[:k])
	appendPoints(ref, pts[:k])
	v := st.View()
	more := append([]Point(nil), pts[k:]...)
	last := int64(0)
	if len(pts) > 0 {
		last = pts[len(pts)-1].T
	}
	for i := 1; i <= BlockPoints; i++ {
		more = append(more, Point{T: last + int64(i)*1e9, V: float64(i)})
	}
	appendPoints(st, more)
	appendPoints(later, more)
	if err := st.ImportTarget("fixw", later.ExportTarget("fixw")); err != nil {
		t.Fatal(err)
	}
	st.Remove("fixw")

	if got := v.Len("fixw", "routes"); got != k {
		t.Fatalf("seed %d: view of %d points holds %d", seed, k, got)
	}
	for _, q := range []Query{
		{Metric: "routes", Op: OpRange, From: from, To: to},
		{Metric: "routes", Op: OpMax, From: from, To: to},
		{Metric: "routes", Op: OpRange, Tier: Tier10, From: from, To: to},
		{Metric: "routes", Op: OpRange, Tier: Tier100, From: from, To: to},
	} {
		got, err := v.QueryTarget(q, "fixw")
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := q.bounds()
		var want TargetResult
		switch {
		case q.Op != OpRange:
			if want, err = ref.QueryTarget(q, "fixw"); err != nil {
				t.Fatal(err)
			}
		case q.Tier != 0:
			want.Target = "fixw"
			if k > 0 {
				want.Points = refTierRange(refTiers(pts[:k], q.Tier), lo, hi)
			}
		default:
			want.Target = "fixw"
			for _, pt := range pts[:k] {
				if pt.T >= lo && pt.T <= hi {
					want.Points = append(want.Points, pt)
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, view after %d of %d points, %s tier %d, [%d, %d]:\ngot  %+v\nwant %+v",
				seed, k, len(pts), q.Op, q.Tier, from, to, got, want)
		}
	}
}

// FuzzTierRange checks tier reads folded from the blocks at query time
// against the bucket arrays the store used to keep: series of up to six
// sealed blocks and a head, with gap runs, bounds anywhere in or
// outside the history, both tiers, and the store live, handed off and
// reopened from its mirror. Each input also takes a View part way
// through the series and holds it to the points it was taken over
// while the store goes on (checkViewFrozen).
func FuzzTierRange(f *testing.F) {
	for seed := int64(0); seed < 28; seed++ {
		blocks := int(seed % 7)
		f.Add(seed, uint16(blocks*BlockPoints+int(seed*37%BlockPoints)), uint16(seed*131), uint16(seed*977+3))
	}
	f.Add(int64(100), uint16(0), uint16(0), uint16(0))
	f.Add(int64(101), uint16(3*BlockPoints), uint16(0), uint16(0))
	f.Add(int64(102), uint16(6*BlockPoints+99), uint16(4*500+2), uint16(4*501))
	f.Add(int64(103), uint16(2*BlockPoints+1), uint16(1), uint16(4*(2*BlockPoints+2)))
	// Bounds exactly on a bucket's first point: (k+1)<<2|1 selects
	// point k's own timestamp.
	f.Add(int64(104), uint16(3*BlockPoints+50), uint16(101<<2|1), uint16(301<<2|1))
	f.Add(int64(105), uint16(5*BlockPoints+7), uint16(261<<2|1), uint16(1001<<2|1))
	f.Add(int64(106), uint16(2*BlockPoints), uint16(11<<2|1), uint16(11<<2|1))
	f.Fuzz(func(t *testing.T, seed int64, n, fromSel, toSel uint16) {
		checkTierRange(t, seed, int(n)%(7*BlockPoints), fromSel, toSel)
	})
}

// TestTierRangeAllocsFlat: a tier read decodes into a buffer on the
// stack and sizes its output from the block headers, so it allocates
// once, over a long history as over a short one.
func TestTierRangeAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		st := New()
		fill(st, "fixw", "routes", 13, n)
		q := Query{Metric: "routes", Op: OpRange, Tier: Tier100}
		return testing.AllocsPerRun(20, func() {
			if _, err := st.QueryTarget(q, "fixw"); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(900), allocs(9100)
	if long > short || long > 1 {
		t.Fatalf("tier-100 read allocates %.0f times over 9 100 points, %.0f over 900; want at most once", long, short)
	}
	t.Logf("tier-100 read: %.0f allocations over 900 points, %.0f over 9 100", short, long)
}
