package process

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core/tables"
	"repro/internal/sim"
)

// feed ingests one scripted fixw-style cycle at an explicit timestamp —
// unlike the harness, the caller owns the clock, so two processors can
// be driven through byte-identical histories.
func feed(p *Processor, target string, at time.Time, routes int) CycleStats {
	return p.Ingest(&tables.Snapshot{Target: target, At: at, Routes: routeTable(routes)})
}

func TestExportImportTargetHandoff(t *testing.T) {
	// Shard handoff in miniature: processor A owns "fixw" and has an
	// open route-injection episode; processor B owns "ucsb" with its own
	// history. Moving fixw from A to B must carry the series, the
	// baseline anchor and the open episode, rebuild the route set from
	// fixw's latest snapshot, leave ucsb untouched, and let B resolve the
	// episode exactly as A would have.
	a, b := New(), New()
	at := sim.Epoch
	for i := 0; i < 4; i++ {
		feed(a, "fixw", at, 500)
		feed(b, "ucsb", at, 300)
		at = at.Add(30 * time.Minute)
	}
	latest := &tables.Snapshot{Target: "fixw", At: at, Routes: routeTable(1400)}
	a.Ingest(latest)         // spike: opens route-injection on A
	feed(b, "ucsb", at, 900) // B raises its own episode too
	at = at.Add(30 * time.Minute)
	if len(a.OpenAnomalies()) != 1 || len(b.OpenAnomalies()) != 1 {
		t.Fatalf("setup: open = %d/%d, want 1/1", len(a.OpenAnomalies()), len(b.OpenAnomalies()))
	}

	st := a.ExportTarget("fixw")
	if st == nil {
		t.Fatal("ExportTarget returned nil for a known target")
	}
	if len(st.Anomalies) != 1 || len(st.Open) != 1 || st.Open[0].Kind != KindRouteInjection {
		t.Fatalf("exported anomalies = %+v open = %+v", st.Anomalies, st.Open)
	}
	ucsbBefore := b.ExportTarget("ucsb")
	b.ImportTarget("fixw", st, latest)

	if !reflect.DeepEqual(b.Series("fixw", MetricRoutes), a.Series("fixw", MetricRoutes)) {
		t.Error("fixw route series did not transfer intact")
	}
	if !reflect.DeepEqual(b.ExportTarget("ucsb"), ucsbBefore) {
		t.Error("import disturbed the unrelated ucsb state")
	}
	var fixwOpen []Anomaly
	for _, an := range openOfKind(b, KindRouteInjection) {
		if an.Target == "fixw" {
			fixwOpen = append(fixwOpen, an)
		}
	}
	if len(fixwOpen) != 1 {
		t.Fatalf("open fixw episodes after import = %+v", b.OpenAnomalies())
	}
	// The imported record got a fresh local ID appended after B's own.
	if bAnoms := b.Anomalies(); bAnoms[len(bAnoms)-1].Target != "fixw" || bAnoms[len(bAnoms)-1].ID <= bAnoms[0].ID {
		t.Errorf("imported anomaly not re-keyed onto B's ring: %+v", bAnoms)
	}

	// Both processors see the incident subside on the next cycle; the
	// episode must resolve on both at the same instant.
	sa, sb := feed(a, "fixw", at, 500), feed(b, "fixw", at, 500)
	if sa.RouteChurn != 900 || sb.RouteChurn != sa.RouteChurn {
		t.Errorf("churn after the handoff = %d on B, %d on A, want 900 on both", sb.RouteChurn, sa.RouteChurn)
	}
	if n := len(openOfKind(a, KindRouteInjection)); n != 0 {
		t.Errorf("A still has %d open route-injection episodes", n)
	}
	for _, an := range openOfKind(b, KindRouteInjection) {
		if an.Target == "fixw" {
			t.Errorf("B still has fixw open after recovery: %+v", an)
		}
	}
	var ra, rb Anomaly
	for _, an := range a.Anomalies() {
		if an.Target == "fixw" && an.Kind == KindRouteInjection {
			ra = an
		}
	}
	for _, an := range b.Anomalies() {
		if an.Target == "fixw" && an.Kind == KindRouteInjection {
			rb = an
		}
	}
	if !ra.Resolved || !rb.Resolved || !ra.ResolvedAt.Equal(rb.ResolvedAt) || !ra.At.Equal(rb.At) {
		t.Errorf("episodes diverged across the handoff:\nA: %+v\nB: %+v", ra, rb)
	}
}

func TestImportTargetNilRemoves(t *testing.T) {
	p := New()
	at := sim.Epoch
	for i := 0; i < 3; i++ {
		feed(p, "fixw", at, 500)
		at = at.Add(30 * time.Minute)
	}
	p.ImportTarget("fixw", nil, nil)
	if p.ExportTarget("fixw") != nil {
		t.Error("nil import should remove the target's state")
	}
	// The next cycle seeds a fresh baseline: a huge value must not fire.
	feed(p, "fixw", at, 5000)
	if n := len(p.OpenAnomalies()); n != 0 {
		t.Errorf("removed target fired on its first post-removal cycle: %+v", p.OpenAnomalies())
	}
}

// TestImportTargetRouteSetFromLatest: the route set is not carried, it
// is the latest snapshot's prefixes — and it exists exactly when a
// snapshot does, so a target whose last table was empty counts its
// first routes as churn while one that never had a cycle does not.
func TestImportTargetRouteSetFromLatest(t *testing.T) {
	src := New()
	at := sim.Epoch
	empty := &tables.Snapshot{Target: "fixw", At: at}
	src.Ingest(empty)
	st := src.ExportTarget("fixw")
	at = at.Add(30 * time.Minute)

	withEmpty, without := New(), New()
	withEmpty.ImportTarget("fixw", st, empty)
	without.ImportTarget("fixw", st, nil)
	if got, want := feed(withEmpty, "fixw", at, 7).RouteChurn, feed(src, "fixw", at, 7).RouteChurn; got != want || want != 7 {
		t.Errorf("churn against an imported empty table = %d, exporter counts %d, want 7", got, want)
	}
	if got := feed(without, "fixw", at, 7).RouteChurn; got != 0 {
		t.Errorf("churn with no snapshot imported = %d, want 0 (first cycle)", got)
	}
	if got := withEmpty.ExportState().LastRoute["fixw"]; len(got) != 7 {
		t.Errorf("route set after the cycle holds %d prefixes, want 7", len(got))
	}
}

func TestExportTargetUnknown(t *testing.T) {
	if st := New().ExportTarget("ghost"); st != nil {
		t.Errorf("unknown target export = %+v, want nil", st)
	}
}

func TestRollupOfCrossTargetOfPureForms(t *testing.T) {
	// The pure forms must agree with the methods over the live ring —
	// the fan-in tier computes fleet rollups from a merged slice.
	h := newHarness()
	for i := 0; i < 4; i++ {
		h.cycle("fixw", 500, 40, 0)
		h.cycle("ucsb", 500, 40, 0)
	}
	h.cycle("fixw", 1400, 40, 0)
	h.cycle("ucsb", 1400, 40, 0)
	if !reflect.DeepEqual(h.p.Rollup(), RollupOf(h.p.Anomalies(), h.p.AnomaliesEvicted())) {
		t.Error("RollupOf disagrees with Processor.Rollup")
	}
	ct := CrossTargetOf(h.p.Anomalies())
	if !reflect.DeepEqual(h.p.CrossTarget(), ct) {
		t.Error("CrossTargetOf disagrees with Processor.CrossTarget")
	}
	if len(ct) != 1 || ct[0].Kind != KindRouteInjection || len(ct[0].Targets) != 2 {
		t.Errorf("cross-target incident = %+v", ct)
	}
}
