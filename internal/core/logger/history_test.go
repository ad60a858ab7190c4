package logger

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

// instant is t with its instant alone: no location, no monotonic
// reading.
func instant(t time.Time) time.Time {
	if t.IsZero() {
		return time.Time{}
	}
	return time.Unix(t.Unix(), int64(t.Nanosecond())).UTC()
}

// sameRecord compares two decoded records field by field, At as an
// instant.
func sameRecord(a, b CycleRecord) bool {
	a.At, b.At = instant(a.At), instant(b.At)
	return reflect.DeepEqual(a, b)
}

// diffRecord is the record Append should hand out for the cycle that
// takes the walked tables prev (nil before the first cycle) to cur,
// found by map lookups rather than the logger's merge walk: upserted,
// in key order, the rows whose key is new or whose Flags or Since
// changed, as identities; removed, in key order, the keys cur lacks.
// Its counter column is left out; checkColumn holds the column.
func diffRecord(prev, cur *tables.Snapshot) CycleRecord {
	rec := CycleRecord{At: cur.At}
	if prev == nil {
		prev = &tables.Snapshot{}
	}
	oldP := make(map[pairKey]tables.PairEntry)
	for _, e := range prev.Pairs {
		oldP[pairKey{Source: e.Source, Group: e.Group}] = e
	}
	nowP := make(map[pairKey]bool)
	for _, e := range cur.Pairs {
		k := pairKey{Source: e.Source, Group: e.Group}
		nowP[k] = true
		if o, ok := oldP[k]; !ok || o.Flags != e.Flags || o.Since != e.Since {
			rec.Pairs.Upserted = append(rec.Pairs.Upserted, tables.PairEntry{Source: e.Source, Group: e.Group, Flags: e.Flags, Since: e.Since})
		}
	}
	for _, e := range prev.Pairs {
		if k := (pairKey{Source: e.Source, Group: e.Group}); !nowP[k] {
			rec.Pairs.Removed = append(rec.Pairs.Removed, k)
		}
	}
	oldR := make(map[addr.Prefix]tables.RouteEntry)
	for _, e := range prev.Routes {
		oldR[e.Prefix] = e
	}
	nowR := make(map[addr.Prefix]bool)
	for _, e := range cur.Routes {
		nowR[e.Prefix] = true
		if o, ok := oldR[e.Prefix]; !ok || o != e {
			rec.Routes.Upserted = append(rec.Routes.Upserted, e)
		}
	}
	for _, e := range prev.Routes {
		if !nowR[e.Prefix] {
			rec.Routes.Removed = append(rec.Routes.Removed, e.Prefix)
		}
	}
	return rec
}

// checkColumn fails t unless col is nil just when no counter moved
// from the walked tables prev to cur, and otherwise takes every row of
// cur from its predecessor's counters — a new key's 0 packets at +0 —
// to its own, rates by their bits.
func checkColumn(t *testing.T, cycle int, col []byte, prev, cur *tables.Snapshot) {
	t.Helper()
	old := make(map[pairKey]tables.PairEntry)
	if prev != nil {
		for _, e := range prev.Pairs {
			old[pairKey{Source: e.Source, Group: e.Group}] = e
		}
	}
	base := append(tables.PairTable(nil), cur.Pairs...)
	moved := false
	for i := range base {
		o := old[pairKey{Source: base[i].Source, Group: base[i].Group}]
		base[i].Packets, base[i].RateKbps = o.Packets, o.RateKbps
		moved = moved || o.Packets != cur.Pairs[i].Packets || math.Float64bits(o.RateKbps) != math.Float64bits(cur.Pairs[i].RateKbps)
	}
	if !moved {
		if col != nil {
			t.Fatalf("cycle %d: no counter moved, yet the record has the column %x", cycle, col)
		}
		return
	}
	if err := readColumn(col, base, true); err != nil || !samePairs(base, cur.Pairs, true) {
		t.Fatalf("cycle %d: the column %x takes the counters to %+v (%v), want %+v", cycle, col, base, err, cur.Pairs)
	}
}

// checkKept fails t unless Record(i) equals want field by field, and
// the bytes the log keeps for it are what appendDelta makes of want.
func checkKept(t *testing.T, l *Logger, target string, i int, want CycleRecord) {
	t.Helper()
	got, err := l.Record(target, i)
	if err != nil || !sameRecord(got, want) {
		t.Fatalf("Record(%d) = %+v (%v), want %+v", i, got, err, want)
	}
	if a, b := appendDelta(nil, l.targets[target].Records[i], 0), appendDelta(nil, want, 0); !bytes.Equal(a, b) {
		t.Fatalf("record %d is kept as %x, appendDelta of the record it should be is %x", i, a, b)
	}
}

// FuzzHistoryBytes holds the log's history, kept as the bytes the WAL
// frame and the checkpoint write, to the records a map diff of each
// cycle's tables makes (diffRecord, checkColumn), over scripted
// histories (fuzzHistory): counters that move, stand still and run
// backwards, keys removed and coming back, identity changes, whole-
// table turnover, out-of-order and repeated rows, gaps. After every
// cycle, the record Append returned and Record of the cycle equal that
// record field by field, and the bytes the log keeps are what
// appendDelta makes of it, so a checkpoint writes what it wrote when
// the log kept decoded records; at the end, Record of every cycle
// still does. The export imported into a fresh logger decodes every
// record the same, and reconstructs and materialises every cycle's
// tables as Append took them, rates by their bits.
func FuzzHistoryBytes(f *testing.F) {
	f.Add([]byte{})
	perCycle := 1 + len(fuzzPrefixes) + len(fuzzPairKeys)
	rng := sim.NewRNG(29)
	long := make([]byte, 120*perCycle)
	for i := range long {
		long[i] = byte(rng.Intn(256))
		if i%perCycle != 0 && rng.Intn(3) > 0 {
			long[i] = byte(rng.Intn(40))<<3 | 1 // mostly unchanged, counters moving
		}
	}
	f.Add(long)
	// Counters moving while nothing else changes: after the first cycle
	// only the column carries the cycle.
	var still []byte
	for c := byte(0); c < 4; c++ {
		still = append(still, 3, 1, 1, 1, 1, 1, 1, 1, 1)
		for p := byte(0); p < 6; p++ {
			still = append(still, (7+c*6+p)%36<<3|1)
		}
	}
	f.Add(still)
	// Keys going and coming back, a gap, turnover, and rows out of order
	// and listed twice.
	f.Add([]byte{
		3, 1, 1, 1, 1, 1, 1, 1, 1, 9, 9, 9, 9, 9, 9,
		3, 0, 1, 0, 1, 0, 1, 0, 1, 0, 17, 0, 17, 0, 17,
		0,
		3, 1, 1, 1, 1, 1, 1, 1, 1, 25, 25, 25, 25, 25, 25,
		2, 1, 5, 6, 1, 3, 1, 6, 5, 9, 13, 6, 5, 6, 1,
		1,
		3, 2, 3, 1, 2, 3, 1, 2, 3, 10, 18, 26, 34, 42, 50,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		const target = "fixw"
		l := New()
		h := newFuzzHistory(target)
		var recs []CycleRecord
		var given []*tables.Snapshot
		for cycle := 0; len(data) > 0; cycle++ {
			var sn *tables.Snapshot
			if sn, _, data = h.next(data, cycle); sn == nil {
				l.MarkGap(target, h.at, "scripted gap")
				continue
			}
			rec, cur := l.Append(sn), walked(sn)
			var prev *tables.Snapshot
			if len(given) > 0 {
				prev = given[len(given)-1]
			}
			want := diffRecord(prev, cur)
			want.SACache, want.MBGPRoutes = len(sn.SAs), len(sn.MBGP)
			checkColumn(t, cycle, rec.Pairs.Counters, prev, cur)
			want.Pairs.Counters = bytes.Clone(rec.Pairs.Counters)
			if !sameRecord(rec, want) {
				t.Fatalf("cycle %d: Append returned %+v, want %+v", cycle, rec, want)
			}
			recs, given = append(recs, want), append(given, cur)
			checkKept(t, l, target, len(recs)-1, want)
		}
		for i, want := range recs { // and none of them changed since
			checkKept(t, l, target, i, want)
		}

		ts, ok := l.ExportTarget(target)
		if !ok {
			if len(given) > 0 || len(l.Gaps(target)) > 0 {
				t.Fatal("no export of a target with a history")
			}
			return
		}
		fresh := New()
		fresh.ImportTarget(target, ts)
		if fresh.Cycles(target) != len(recs) || !reflect.DeepEqual(fresh.Gaps(target), l.Gaps(target)) {
			t.Fatalf("imported %d cycles and gaps %v, want %d and %v", fresh.Cycles(target), fresh.Gaps(target), len(recs), l.Gaps(target))
		}
		for i, want := range recs {
			got, err := fresh.Record(target, i)
			if err != nil || !sameRecord(got, want) {
				t.Fatalf("imported Record(%d) = %+v (%v), want %+v", i, got, err, want)
			}
			p, err1 := fresh.ReconstructPairs(target, i)
			r, err2 := fresh.ReconstructRoutes(target, i)
			sn := &tables.Snapshot{Target: target, At: given[i].At, Pairs: p, Routes: r}
			if err1 != nil || err2 != nil || !sameTables(sn, given[i], true) {
				t.Fatalf("cycle %d reconstructed after the import (%v, %v)\ngot:  %+v\nwant: %+v", i, err1, err2, sn, given[i])
			}
		}
		if len(given) > 0 {
			if sn, ok := fresh.Materialized(target); !ok || !sameTables(sn, given[len(given)-1], true) {
				t.Fatalf("imported log materialises\n%+v\nwant\n%+v", sn, given[len(given)-1])
			}
		}
		d1, f1, _ := l.StorageStats(target)
		if d2, f2, _ := fresh.StorageStats(target); d1 != d2 || f1 != f2 {
			t.Fatalf("imported storage stats %d/%d, want %d/%d", d2, f2, d1, f1)
		}
	})
}
