// Per-target state transfer: the seams a core moves one router's
// processing state through — a shard handoff, when a dead worker's
// targets are reassigned to survivors, and a crash recovery, when a
// restarted monitor reloads its checkpoint.
//
// ExportTarget captures one target's compressed series, baseline
// anchor, anomaly history and open episodes — not the route table its
// next churn is counted against, which is the target's latest
// snapshot's and is taken from that at import. ImportTarget splices
// them into another processor, assigning fresh ring IDs (the anomaly
// ring's ID contiguity invariant forbids inserting foreign IDs
// mid-ring); Restore installs every
// target's the same way into a processor that has ingested nothing and
// keeps the IDs, the checkpoint carrying the ring's counters (Ring).
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
// transfer unit for shard handoff and, encoded by the cycle core, part
// of a crash checkpoint. All fields are plain data. An export shares
// what the processor never writes again — the store's sealed blocks and
// its series heads up to their current lengths (tsdb.Store.ExportTarget)
// — and copies the rest; an import copies all of it.
type TargetState struct {
	Target string
	// Store carries the target's compressed series, its whole history:
	// the importer rebuilds the detection windows from it.
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

// ExportTarget captures one target's processing state, or returns nil
// if the processor has never seen the target.
func (p *Processor) ExportTarget(target string) *TargetState {
	store := p.store.ExportTarget(target)
	base, okBase := p.baseStart[target]
	if store == nil && !okBase {
		return nil
	}
	st := &TargetState{Target: target, Store: store, BaseStart: base, HasBase: okBase}
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
	// Sorted by kind, so equal states export equal values, which the
	// handoff and recovery twins compare, and encode to equal
	// checkpoint bytes.
	sort.Slice(st.Open, func(i, j int) bool { return st.Open[i].Kind < st.Open[j].Kind })
	return st
}

// ImportTarget replaces one target's processing state with a copy of
// st, leaving every other target untouched. The imported anomalies are
// appended to the ring with fresh local IDs — in ring-order they read
// as "history learned at import time", and any older copies of the same
// episodes already in this ring (e.g. from a previous ownership stint)
// remain; fleet views dedup by (target, kind, open-time) keeping the
// highest local ID. A nil st simply removes the target's state.
//
// latest is the last snapshot the exporter ingested for the target, or
// its tables as the imported delta log rebuilds them, nil if it never
// ingested one. The table the next cycle's churn is counted
// against is that snapshot's, so it is taken from there rather than
// carried: one exists exactly when a snapshot does, an empty table
// included.
func (p *Processor) ImportTarget(target string, st *TargetState, latest *tables.Snapshot) {
	p.install(target, st, latest)
	if st == nil {
		return
	}
	ids := make([]int, len(st.Anomalies))
	for i, a := range st.Anomalies {
		a.Target = target
		a.ID = p.nextID
		p.nextID++
		ids[i] = a.ID
		p.appendAnomaly(a)
	}
	p.reopen(target, st.Open, ids)
}

// Ring is the anomaly ring's bookkeeping: the ID of its oldest retained
// record, the next ID to assign and how many records it has evicted.
type Ring struct {
	FirstID int
	NextID  int
	Evicted uint64
}

// Ring returns the anomaly ring's bookkeeping.
func (p *Processor) Ring() Ring {
	return Ring{FirstID: p.firstID, NextID: p.nextID, Evicted: p.evicted}
}

// Restore loads a checkpoint into a processor that has ingested
// nothing: each target's state is installed as ImportTarget installs
// it, but every anomaly keeps its ID and ring position and the ring its
// counters, so the restored ring reads byte for byte as the
// checkpointed one did. latest gives each target's last ingested
// snapshot as of the checkpoint. The processor's own configuration —
// thresholds, the ring cap — applies to what it restores.
func (p *Processor) Restore(ring Ring, states map[string]*TargetState, latest map[string]*tables.Snapshot) {
	var all []Anomaly
	for target, st := range states {
		p.install(target, st, latest[target])
		all = append(all, st.Anomalies...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	p.anomalies = nil
	p.firstID, p.nextID, p.evicted = ring.FirstID, ring.NextID, ring.Evicted
	for _, a := range all {
		p.appendAnomaly(a)
	}
	for target, st := range states {
		ids := make([]int, len(st.Anomalies))
		for i := range st.Anomalies {
			ids[i] = st.Anomalies[i].ID
		}
		p.reopen(target, st.Open, ids)
	}
}

// install replaces one target's compressed store, detection windows,
// baseline anchor and churn baseline with st's, dropping its open
// episodes; the anomaly ring is the caller's. The windows are rebuilt by
// pushing the imported points through them as Ingest and MarkGap did. A
// nil st just removes the target.
func (p *Processor) install(target string, st *TargetState, latest *tables.Snapshot) {
	delete(p.windows, target)
	delete(p.prevRoutes, target)
	delete(p.baseStart, target)
	delete(p.open, target)
	p.store.Remove(target)
	if st == nil {
		return
	}
	// Self-exported store state always round-trips.
	_ = p.store.ImportTarget(target, st.Store)
	if st.Store != nil {
		w, keep := p.windowsFor(target), p.keep()
		for _, m := range AllMetrics {
			_ = p.store.Scan(target, string(m), func(pts []tsdb.Point) {
				for _, pt := range pts {
					w[m].push(pt, keep)
				}
			})
		}
	}
	if latest != nil {
		p.routeChurn(target, latest.Routes)
	}
	if st.HasBase {
		p.baseStart[target] = st.BaseStart
	}
}

// reopen re-registers a target's in-progress episodes, ids[i] being the
// ring ID its Anomalies[i] now holds. An episode whose record the ring
// has already evicted stays closed.
func (p *Processor) reopen(target string, open []OpenTransfer, ids []int) {
	for _, ot := range open {
		if ot.Index >= len(ids) || ids[ot.Index] < p.firstID {
			continue
		}
		if p.open[target] == nil {
			p.open[target] = make(map[string]openEpisode)
		}
		p.open[target][ot.Kind] = openEpisode{ID: ids[ot.Index], Frozen: ot.Frozen}
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
