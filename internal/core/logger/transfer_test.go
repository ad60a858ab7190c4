package logger

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core/tables"
	"repro/internal/sim"
)

func snapFor(target string, at time.Time, pairs tables.PairTable, routes tables.RouteTable) *tables.Snapshot {
	return &tables.Snapshot{Target: target, At: at, Pairs: pairs, Routes: routes}
}

func TestLoggerExportImportTarget(t *testing.T) {
	// Shard handoff: one target's delta chain moves to a survivor's
	// logger, which must continue the chain exactly where the dead
	// shard left it — same materialized tables, same next delta.
	src := New()
	at := sim.Epoch
	src.Append(snapFor("fixw", at,
		tables.PairTable{pair("1.1.1.1", "224.1.1.1", 5)},
		tables.RouteTable{route("10.0.0.0/8", 1), route("11.0.0.0/8", 2)}))
	src.Append(snapFor("ucsb", at, nil, tables.RouteTable{route("20.0.0.0/8", 1)}))
	at = at.Add(time.Hour)
	src.MarkGap("fixw", at, "dial timeout")
	at = at.Add(time.Hour)
	src.Append(snapFor("fixw", at,
		tables.PairTable{pair("1.1.1.1", "224.1.1.1", 9), pair("2.2.2.2", "224.1.1.2", 3)},
		tables.RouteTable{route("10.0.0.0/8", 1)}))

	ts, ok := src.ExportTarget("fixw")
	if !ok {
		t.Fatal("ExportTarget failed for a known target")
	}
	if _, ok := src.ExportTarget("ghost"); ok {
		t.Fatal("ExportTarget succeeded for an unknown target")
	}

	dst := New()
	dst.Append(snapFor("dom00-gw", sim.Epoch, nil, tables.RouteTable{route("30.0.0.0/8", 3)}))
	dst.ImportTarget("fixw", ts)

	wantSn, _ := src.Materialized("fixw")
	gotSn, ok := dst.Materialized("fixw")
	if !ok || !reflect.DeepEqual(wantSn, gotSn) {
		t.Fatalf("materialized state diverged:\nwant %+v\ngot  %+v", wantSn, gotSn)
	}
	if !reflect.DeepEqual(src.Gaps("fixw"), dst.Gaps("fixw")) {
		t.Error("gap marks did not transfer")
	}
	if dst.Cycles("fixw") != src.Cycles("fixw") {
		t.Errorf("cycles = %d, want %d", dst.Cycles("fixw"), src.Cycles("fixw"))
	}
	de, fe, _ := src.StorageStats("fixw")
	de2, fe2, _ := dst.StorageStats("fixw")
	if de != de2 || fe != fe2 {
		t.Errorf("storage stats diverged: %d/%d vs %d/%d", de, fe, de2, fe2)
	}

	// The next cycle's delta must be identical on both sides: the import
	// rebuilt the materialized diff base, not just the record list.
	at = at.Add(time.Hour)
	next := snapFor("fixw", at,
		tables.PairTable{pair("1.1.1.1", "224.1.1.1", 9)},
		tables.RouteTable{route("10.0.0.0/8", 1), route("12.0.0.0/8", 4)})
	recSrc := src.Append(next)
	recDst := dst.Append(next)
	if !reflect.DeepEqual(recSrc, recDst) {
		t.Fatalf("post-handoff delta diverged:\nsrc %+v\ndst %+v", recSrc, recDst)
	}

	// The export is a fixed view: the source growing afterwards must
	// not bleed into an import taken earlier.
	if len(ts.Records) != 2 {
		t.Errorf("export grew with the source: %d records", len(ts.Records))
	}
	// Import replaces: re-importing over live state resets to the export.
	dst.ImportTarget("fixw", ts)
	if dst.Cycles("fixw") != 2 {
		t.Errorf("re-import cycles = %d, want 2", dst.Cycles("fixw"))
	}
}

// TestExportTargetIsAStableView: ExportTarget hands out the append-only
// history itself, clipped to its length, not a copy. The torn-cycle
// fence depends on two things: what the exporter appends afterwards
// lands beyond the view, and what anyone appends to the view never
// lands in the exporter's log.
func TestExportTargetIsAStableView(t *testing.T) {
	l := New()
	at := sim.Epoch
	for i := 0; i < 5; i++ {
		l.Append(snapFor("fixw", at, nil, tables.RouteTable{route("10.0.0.0/8", i+1)}))
		l.MarkGap("fixw", at.Add(time.Minute), "dial timeout")
		at = at.Add(time.Hour)
	}
	tl := l.targets["fixw"]
	if cap(tl.Records) == len(tl.Records) || cap(tl.gaps) == len(tl.gaps) {
		t.Fatalf("setup: the live slices have no spare capacity (%d/%d records, %d/%d gaps), so an in-place append cannot be told from a regrown one",
			len(tl.Records), cap(tl.Records), len(tl.gaps), cap(tl.gaps))
	}

	view, _ := l.ExportTarget("fixw")
	if &view.Records[0] != &tl.Records[0] || &view.Gaps[0] != &tl.gaps[0] {
		t.Error("export copied the history instead of viewing it")
	}
	frozen := TargetState{
		Records:     append([]CycleRecord(nil), view.Records...),
		Gaps:        append([]GapMark(nil), view.Gaps...),
		FullEntries: view.FullEntries,
	}

	// The exporter keeps going — a torn cycle, in the handoff's terms.
	torn := l.Append(snapFor("fixw", at, nil, tables.RouteTable{route("11.0.0.0/8", 1)}))
	l.MarkGap("fixw", at.Add(time.Minute), "torn")
	if !reflect.DeepEqual(view, frozen) {
		t.Errorf("the exporter's later append changed the exported view:\ngot  %+v\nwant %+v", view, frozen)
	}

	// An importer appending to the view reallocates; the exporter's
	// sixth record and gap stay what it wrote.
	grownR := append(view.Records, CycleRecord{At: at, SACache: 99})
	grownG := append(view.Gaps, GapMark{At: at, Reason: "importer"})
	if rec, _ := l.Record("fixw", 5); !reflect.DeepEqual(rec, torn) {
		t.Errorf("appending to the view overwrote the live log's next record: %+v", rec)
	}
	if g := l.Gaps("fixw"); g[5].Reason != "torn" {
		t.Errorf("appending to the view overwrote the live log's next gap: %+v", g[5])
	}
	if grownR[5].SACache != 99 || grownG[5].Reason != "importer" {
		t.Errorf("the view's own append was lost: %+v %+v", grownR[5], grownG[5])
	}
}
