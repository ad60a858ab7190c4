// Per-target state transfer: the seams shard handoff moves a single
// router's processing state through when a dead worker's targets are
// reassigned to survivors.
//
// ExportState/ImportState (state.go) move a whole processor — the
// checkpoint/recovery shape. Handoff is finer-grained: the new owner
// already has live state for its own targets and must graft exactly one
// more target in without disturbing them. ExportTarget captures one
// target's series, baseline anchor, anomaly history and open episodes —
// not the route table its next churn is counted against, which is the
// target's latest snapshot's and is taken from that at import;
// ImportTarget splices them into another processor, assigning fresh
// ring IDs (the anomaly ring's ID contiguity invariant forbids
// inserting foreign IDs mid-ring).
// Fleet-level views dedup the resulting cross-shard copies by ownership;
// RollupOf/CrossTargetOf are the pure forms of the rollup computations,
// usable over any merged anomaly slice.
package process

import (
	"sort"

	"repro/internal/core/tables"
	"repro/internal/core/tsdb"
)

// TargetState is the exportable processing state of one target: the
// transfer unit for shard handoff. All fields are plain data (gob-safe)
// and deep-copied on export and import.
type TargetState struct {
	Target string
	Series map[Metric]*Series
	// Store carries the target's compressed long-horizon series, so a
	// handoff moves full history, not just the hot rings.
	Store *tsdb.TargetState
	// BaseStart anchors the detection baseline window; HasBase records
	// whether the target had one (index 0 is a valid anchor).
	BaseStart int
	HasBase   bool
	// Anomalies holds this target's episodes in ring (ID) order. IDs
	// are the exporter's local ring IDs; the importer re-keys them.
	Anomalies []Anomaly
	// Open references in-progress episodes by index into Anomalies.
	Open []OpenTransfer
}

// OpenTransfer is one in-progress episode in a TargetState: the index
// of its record in the Anomalies slice and the frozen baseline it
// resolves against.
type OpenTransfer struct {
	Kind   string
	Index  int
	Frozen float64
}

// ExportTarget deep-copies one target's processing state, or returns
// nil if the processor has never seen the target.
func (p *Processor) ExportTarget(target string) *TargetState {
	ts, okSeries := p.series[target]
	base, okBase := p.baseStart[target]
	if !okSeries && !okBase {
		return nil
	}
	st := &TargetState{Target: target, BaseStart: base, HasBase: okBase}
	st.Store = p.store.ExportTarget(target)
	if okSeries {
		st.Series = make(map[Metric]*Series, len(ts))
		for m, s := range ts {
			st.Series[m] = copySeries(s)
		}
	}
	idx := make(map[int]int) // local ring ID -> index in st.Anomalies
	for i := range p.anomalies {
		a := p.anomalies[i]
		if a.Target != target {
			continue
		}
		idx[a.ID] = len(st.Anomalies)
		st.Anomalies = append(st.Anomalies, a)
	}
	for kind, ep := range p.open[target] {
		i, ok := idx[ep.ID]
		if !ok {
			continue // episode's record evicted from the ring
		}
		st.Open = append(st.Open, OpenTransfer{Kind: kind, Index: i, Frozen: ep.Frozen})
	}
	// Sorted by kind: exports gob-encode into checkpoints, and map
	// iteration order must not leak into checkpoint bytes.
	sort.Slice(st.Open, func(i, j int) bool { return st.Open[i].Kind < st.Open[j].Kind })
	return st
}

// ImportTarget replaces one target's processing state with a deep copy
// of st, leaving every other target untouched. The imported anomalies
// are appended to the ring with fresh local IDs — in ring-order they
// read as "history learned at import time", and any older copies of the
// same episodes already in this ring (e.g. from a previous ownership
// stint) remain; fleet views dedup by (target, kind, open-time) keeping
// the highest local ID. A nil st simply removes the target's state.
//
// latest is the last snapshot the exporter ingested for the target, nil
// if it never ingested one. The table the next cycle's churn is counted
// against is that snapshot's, so it is taken from there rather than
// carried: one exists exactly when a snapshot does, an empty table
// included.
func (p *Processor) ImportTarget(target string, st *TargetState, latest *tables.Snapshot) {
	delete(p.series, target)
	delete(p.prevRoutes, target)
	delete(p.baseStart, target)
	delete(p.open, target)
	p.store.Remove(target)
	if st == nil {
		return
	}
	// Self-exported store state always round-trips.
	_ = p.store.ImportTarget(target, st.Store)
	if st.Series != nil {
		cp := make(map[Metric]*Series, len(st.Series))
		for m, s := range st.Series {
			sr := copySeries(s)
			sr.retain = p.retain
			sr.trim()
			cp[m] = sr
		}
		p.series[target] = cp
	}
	if latest != nil {
		p.routeChurn(target, latest.Routes)
	}
	if st.HasBase {
		p.baseStart[target] = st.BaseStart
	}
	newID := make(map[int]int, len(st.Anomalies)) // index in st.Anomalies -> fresh ring ID
	for i, a := range st.Anomalies {
		a.Target = target
		a.ID = p.nextID
		p.nextID++
		newID[i] = a.ID
		p.appendAnomaly(a)
	}
	for _, ot := range st.Open {
		id, ok := newID[ot.Index]
		if !ok || id < p.firstID {
			continue // record evicted while appending the rest
		}
		if p.open[target] == nil {
			p.open[target] = make(map[string]openEpisode)
		}
		p.open[target][ot.Kind] = openEpisode{ID: id, Frozen: ot.Frozen}
	}
}

// RollupOf summarizes an anomaly slice exactly as Processor.Rollup
// summarizes the live ring — the pure form the shard fan-in uses over a
// merged fleet anomaly log. ByKind is sorted by kind name.
func RollupOf(anomalies []Anomaly, evicted uint64) AnomalyRollup {
	r := AnomalyRollup{
		Total:   len(anomalies) + int(evicted),
		Evicted: evicted,
	}
	byKind := make(map[string]*KindCount)
	var kinds []string
	for i := range anomalies {
		a := &anomalies[i]
		kc := byKind[a.Kind]
		if kc == nil {
			kc = &KindCount{Kind: a.Kind}
			byKind[a.Kind] = kc
			kinds = append(kinds, a.Kind)
		}
		kc.Total++
		if a.Resolved {
			r.Resolved++
			continue
		}
		r.Open++
		kc.Open++
		switch a.Severity {
		case SeverityCritical:
			r.Critical++
		case SeverityWarning:
			r.Warning++
		}
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		r.ByKind = append(r.ByKind, *byKind[k])
	}
	return r
}

// CrossTargetOf correlates open episodes across targets in an anomaly
// slice — the pure form of Processor.CrossTarget, usable over a merged
// fleet anomaly log. Output is deterministic: incidents sorted by kind,
// targets by name, FirstSeen the earliest open episode's first-seen.
func CrossTargetOf(anomalies []Anomaly) []CrossTargetIncident {
	byKind := make(map[string]*CrossTargetIncident)
	var kinds []string
	for i := range anomalies {
		a := &anomalies[i]
		if a.Resolved {
			continue
		}
		ci := byKind[a.Kind]
		if ci == nil {
			ci = &CrossTargetIncident{Kind: a.Kind, Severity: a.Severity, FirstSeen: a.At}
			byKind[a.Kind] = ci
			kinds = append(kinds, a.Kind)
		}
		ci.Targets = append(ci.Targets, a.Target)
		if a.At.Before(ci.FirstSeen) {
			ci.FirstSeen = a.At
		}
		if a.Severity == SeverityCritical {
			ci.Severity = SeverityCritical
		}
	}
	sort.Strings(kinds)
	var out []CrossTargetIncident
	for _, k := range kinds {
		ci := byKind[k]
		if len(ci.Targets) < 2 {
			continue
		}
		sort.Strings(ci.Targets)
		out = append(out, *ci)
	}
	return out
}
