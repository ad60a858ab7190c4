// Package logger implements Mantra's Data Logger module: it persists each
// monitoring cycle for off-line and long-term trend analysis while
// conserving storage the way the paper describes —
//
//   - deltas only: instead of whole tables, only the entries that were
//     added, removed or changed since the previous cycle are stored
//     (very effective for the slowly-changing route table); a pair's
//     counters move every cycle, so they go in a column of varint
//     differences beside the delta of the pairs' identities;
//   - no redundancy: the Participant and Session tables are derivable
//     from the Pair table, so they are never logged at all.
//
// Any cycle's full tables can be reconstructed by replaying deltas.
package logger

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/core/tables"
)

// pairKey identifies a pair-table entry.
type pairKey struct {
	Source addr.IP
	Group  addr.IP
}

// PairDelta is the pair-table change set of one cycle. Upserted holds
// the rows whose key is new or whose Flags or Since changed, counters
// and Uptime zeroed; Counters is the column (codec.go) of every pair's
// Packets and RateKbps against the previous cycle's, nil if none moved.
type PairDelta struct {
	Upserted []tables.PairEntry
	Removed  []pairKey
	Counters []byte
}

// RouteDelta is the route-table change set of one cycle.
type RouteDelta struct {
	Upserted []tables.RouteEntry
	Removed  []addr.Prefix
}

// CycleRecord is one logged monitoring cycle for one target.
type CycleRecord struct {
	At     time.Time
	Pairs  PairDelta
	Routes RouteDelta
	// SACache and MBGPRoutes are the MSDP SA-cache and MBGP RIB sizes at
	// this cycle. The protocol tables themselves are not delta-logged —
	// the anomaly detectors consume only their magnitudes — so the record
	// carries the counts a recovery needs to replay detection exactly.
	SACache    int
	MBGPRoutes int
}

// GapMark records one failed collection cycle: no snapshot arrived at At,
// so the delta chain has an explicit hole there instead of a silent one.
type GapMark struct {
	At     time.Time
	Reason string
}

// targetLog accumulates one collection point's history.
type targetLog struct {
	Records []CycleRecord
	// gaps lists the failed cycles interleaved with Records.
	gaps []GapMark
	// pairs and routes are the tables as of the latest record, in key
	// order and duplicate-free (the form tables' Walk returns): what the
	// next cycle is compared with. After an Append they are the
	// snapshot's own tables, shared with whoever else holds the snapshot
	// and never written; their Uptime is that cycle's and is ignored.
	pairs  tables.PairTable
	routes tables.RouteTable
	column []byte // Append's scratch buffer for the counter rows
	// fullEntries counts what full-snapshot storage would have used.
	fullEntries  uint64
	deltaEntries uint64
}

// Logger stores delta-encoded history per collection point.
type Logger struct {
	targets map[string]*targetLog
}

// New returns an empty logger.
func New() *Logger {
	return &Logger{targets: make(map[string]*targetLog)}
}

// identity strips a pair row to what Upserted logs. The absolute Since
// carries the per-cycle Uptime and is stable while the entry persists.
func identity(e tables.PairEntry) tables.PairEntry {
	return tables.PairEntry{Source: e.Source, Group: e.Group, Flags: e.Flags, Since: e.Since}
}

func normRoute(e tables.RouteEntry) tables.RouteEntry {
	e.Uptime = 0
	return e
}

func (l *Logger) target(name string) *targetLog {
	tl := l.targets[name]
	if tl == nil {
		tl = &targetLog{}
		l.targets[name] = tl
	}
	return tl
}

// Append logs one cycle snapshot, computing deltas against the previous
// cycle of the same target. It returns the delta record it stored, so a
// durable archive can persist exactly what the in-memory log holds.
//
// The snapshot's tables are walked against the previous cycle's in key
// order, so the record lists upserts and removals in key order with no
// sorting, and are then kept — by reference, not copied — as the next
// cycle's predecessor: a snapshot handed to Append must not be written
// afterwards. The walk also writes the counter rows to a scratch buffer
// the record gets a copy of if a counter moved. The budget is the two
// visitors, which capture the record being built; its slices are
// returned and cannot be pooled.
//
//mantra:hotpath budget=2
func (l *Logger) Append(sn *tables.Snapshot) CycleRecord {
	tl := l.target(sn.Target)
	rec := CycleRecord{At: sn.At, SACache: len(sn.SAs), MBGPRoutes: len(sn.MBGP)}

	col, moved := tl.column[:0], false
	tl.pairs = tl.pairs.Walk(sn.Pairs, func(old, cur *tables.PairEntry) {
		if cur == nil {
			rec.Pairs.Removed = append(rec.Pairs.Removed, pairKey{Source: old.Source, Group: old.Group})
			return
		}
		var packets, rate uint64 // a new key's predecessor counts nothing
		if old != nil {
			packets, rate = old.Packets, math.Float64bits(old.RateKbps)
		}
		if old == nil || identity(*old) != identity(*cur) {
			rec.Pairs.Upserted = append(rec.Pairs.Upserted, identity(*cur))
		}
		d, r := cur.Packets-packets, math.Float64bits(cur.RateKbps)
		col = appendCounter(col, d, r, r != rate)
		moved = moved || d != 0 || r != rate
	})
	tl.column = col
	if moved {
		rec.Pairs.Counters = sealColumn(len(tl.pairs), col)
	}
	tl.routes = tl.routes.Walk(sn.Routes, func(old, cur *tables.RouteEntry) {
		switch {
		case cur == nil:
			rec.Routes.Removed = append(rec.Routes.Removed, old.Prefix)
		case old == nil || normRoute(*old) != normRoute(*cur):
			rec.Routes.Upserted = append(rec.Routes.Upserted, normRoute(*cur))
		}
	})

	tl.Records = append(tl.Records, rec)
	tl.fullEntries += uint64(len(sn.Pairs) + len(sn.Routes))
	tl.deltaEntries += deltaSize(rec)
	return rec
}

func deltaSize(rec CycleRecord) uint64 {
	return uint64(len(rec.Pairs.Upserted) + len(rec.Pairs.Removed) +
		len(rec.Routes.Upserted) + len(rec.Routes.Removed))
}

// patch returns prev with one record's change set applied — the same
// walk Append runs, twice: the upserts are walked in, then the removed
// keys, as rows that hold only a key, are walked out; keep, if set,
// gives an upserted row what it lacks from the row it replaces. The
// result is new unless the change set is empty; prev is never written.
func patch[T ~[]E, E any](walk func(prev, cur T, visit func(old, cur *E)) T, prev, upserted, removed T, keep func(dst, old *E)) T {
	if len(upserted) == 0 && len(removed) == 0 {
		return prev
	}
	out := make(T, 0, len(prev)+len(upserted))
	walk(prev, upserted, func(old, cur *E) {
		if cur == nil {
			cur, old = old, nil
		}
		out = append(out, *cur)
		if old != nil && keep != nil {
			keep(&out[len(out)-1], old)
		}
	})
	if len(removed) == 0 {
		return out
	}
	// Filtering out in place is safe under the walk reading it: a kept
	// row is written at or before the index it was read from.
	kept := out[:0]
	walk(out, removed, func(old, gone *E) {
		if gone == nil {
			kept = append(kept, *old)
		}
	})
	return kept
}

// patchPairs applies the identity delta, then the counter column to the
// table it leaves; prev is never written. A column that does not fit is
// an error, the table returned as readColumn leaves it.
func patchPairs(prev tables.PairTable, d PairDelta) (tables.PairTable, error) {
	gone := make(tables.PairTable, len(d.Removed))
	for i, k := range d.Removed {
		gone[i] = tables.PairEntry{Source: k.Source, Group: k.Group}
	}
	next := patch(tables.PairTable.Walk, prev, d.Upserted, gone, func(dst, old *tables.PairEntry) {
		dst.RateKbps, dst.Packets = old.RateKbps, old.Packets // the column's base
	})
	if d.Counters == nil {
		return next, nil
	}
	if len(d.Upserted)+len(d.Removed) == 0 {
		next = slices.Clone(prev) // patch handed back prev itself
	}
	return next, readColumn(d.Counters, next, true)
}

func patchRoutes(prev tables.RouteTable, d RouteDelta) tables.RouteTable {
	gone := make(tables.RouteTable, len(d.Removed))
	for i, p := range d.Removed {
		gone[i] = tables.RouteEntry{Prefix: p}
	}
	return patch(tables.RouteTable.Walk, prev, d.Upserted, gone, nil)
}

// ApplyRecord appends a pre-computed delta record — the replay path of the
// durable archive. The record must have been produced by Append against
// the same history prefix; fullEntries is the full-snapshot entry count of
// the cycle that produced it, restoring the storage-stats baseline. A
// record whose counter column does not fit is logged all the same, its
// pairs keeping their counters, and reported as ErrBadRecord.
func (l *Logger) ApplyRecord(target string, rec CycleRecord, fullEntries uint64) error {
	tl := l.target(target)
	var err error
	tl.pairs, err = patchPairs(tl.pairs, rec.Pairs)
	tl.routes = patchRoutes(tl.routes, rec.Routes)
	tl.Records = append(tl.Records, rec)
	tl.fullEntries += fullEntries
	tl.deltaEntries += deltaSize(rec)
	return err
}

// MarkGap records a failed collection cycle for target at time at.
func (l *Logger) MarkGap(target string, at time.Time, reason string) {
	tl := l.target(target)
	tl.gaps = append(tl.gaps, GapMark{At: at, Reason: reason})
}

// Gaps returns the failed cycles recorded for target, in order.
func (l *Logger) Gaps(target string) []GapMark {
	tl := l.targets[target]
	if tl == nil {
		return nil
	}
	return append([]GapMark(nil), tl.gaps...)
}

// Materialized returns the full tables as of the latest logged cycle of
// target — the state Append diffs against — or false before the first
// cycle. Uptimes are recomputed from the stable Since instants, exactly as
// ReconstructPairs/ReconstructRoutes do, so the result equals a
// reconstruction of the final cycle without replaying the chain.
func (l *Logger) Materialized(target string) (*tables.Snapshot, bool) {
	tl := l.targets[target]
	if tl == nil || len(tl.Records) == 0 {
		return nil, false
	}
	at := tl.Records[len(tl.Records)-1].At
	return &tables.Snapshot{Target: target, At: at, Pairs: pairsAt(tl.pairs, at), Routes: routesAt(tl.routes, at)}, true
}

// pairsAt copies a retained pair table with every uptime as of at.
func pairsAt(t tables.PairTable, at time.Time) tables.PairTable {
	out := append(make(tables.PairTable, 0, len(t)), t...)
	for i := range out {
		out[i].Uptime = 0
		if !out[i].Since.IsZero() {
			out[i].Uptime = at.Sub(out[i].Since)
		}
	}
	return out
}

// routesAt copies a retained route table with every uptime as of at.
func routesAt(t tables.RouteTable, at time.Time) tables.RouteTable {
	out := append(make(tables.RouteTable, 0, len(t)), t...)
	for i := range out {
		out[i].Uptime = 0
		if !out[i].Since.IsZero() {
			out[i].Uptime = at.Sub(out[i].Since)
		}
	}
	return out
}

// Targets returns the known collection points, sorted by name so callers
// that serialize per-target state (the checkpoint writer does) see a
// stable order.
func (l *Logger) Targets() []string {
	out := make([]string, 0, len(l.targets))
	for t := range l.targets {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Cycles returns how many cycles are logged for target.
func (l *Logger) Cycles(target string) int {
	tl := l.targets[target]
	if tl == nil {
		return 0
	}
	return len(tl.Records)
}

// At returns the timestamp of cycle idx for target.
func (l *Logger) At(target string, idx int) (time.Time, error) {
	tl := l.targets[target]
	if tl == nil || idx < 0 || idx >= len(tl.Records) {
		return time.Time{}, fmt.Errorf("logger: no cycle %d for %q", idx, target)
	}
	return tl.Records[idx].At, nil
}

// ReconstructPairs replays deltas to materialize the pair table as it was
// at cycle idx (0-based).
func (l *Logger) ReconstructPairs(target string, idx int) (tables.PairTable, error) {
	tl := l.targets[target]
	if tl == nil || idx < 0 || idx >= len(tl.Records) {
		return nil, fmt.Errorf("logger: no cycle %d for %q", idx, target)
	}
	var state tables.PairTable
	for i := 0; i <= idx; i++ {
		state, _ = patchPairs(state, tl.Records[i].Pairs) // a misfit as ApplyRecord took it
	}
	return pairsAt(state, tl.Records[idx].At), nil
}

// ReconstructRoutes replays deltas to materialize the route table at
// cycle idx.
func (l *Logger) ReconstructRoutes(target string, idx int) (tables.RouteTable, error) {
	tl := l.targets[target]
	if tl == nil || idx < 0 || idx >= len(tl.Records) {
		return nil, fmt.Errorf("logger: no cycle %d for %q", idx, target)
	}
	var state tables.RouteTable
	for i := 0; i <= idx; i++ {
		state = patchRoutes(state, tl.Records[i].Routes)
	}
	return routesAt(state, tl.Records[idx].At), nil
}

// Record returns the raw delta record of cycle idx.
func (l *Logger) Record(target string, idx int) (CycleRecord, error) {
	tl := l.targets[target]
	if tl == nil || idx < 0 || idx >= len(tl.Records) {
		return CycleRecord{}, fmt.Errorf("logger: no cycle %d for %q", idx, target)
	}
	return tl.Records[idx], nil
}

// StorageStats reports entry counts stored as deltas versus what full
// snapshots would have stored, and the resulting compression ratio. It
// counts identity entries, not the counter column: the log's byte cost
// is what the archive appends, StoreStats.AppendedBytes.
func (l *Logger) StorageStats(target string) (deltaEntries, fullEntries uint64, ratio float64) {
	tl := l.targets[target]
	if tl == nil {
		return 0, 0, 0
	}
	if tl.deltaEntries == 0 {
		return 0, tl.fullEntries, 0
	}
	return tl.deltaEntries, tl.fullEntries, float64(tl.fullEntries) / float64(tl.deltaEntries)
}

// TargetState is one target's serialized history.
type TargetState struct {
	Records []CycleRecord
	Gaps    []GapMark
	// FullEntries is the full-snapshot storage baseline counter.
	FullEntries uint64
}

// State is the complete serialized form of a Logger — the payload of the
// durable archive's checkpoints.
type State struct {
	Targets map[string]TargetState
}

// ExportState captures the logger's full state for checkpointing.
func (l *Logger) ExportState() *State {
	st := &State{Targets: make(map[string]TargetState, len(l.targets))}
	for name, tl := range l.targets {
		st.Targets[name] = TargetState{
			Records:     tl.Records,
			Gaps:        tl.gaps,
			FullEntries: tl.fullEntries,
		}
	}
	return st
}

// FromState rebuilds a logger positioned to continue appending: the
// materialized per-target tables and storage counters are replayed from
// the recorded delta chain.
func FromState(st *State) *Logger {
	l := New()
	if st == nil {
		return l
	}
	for name, ts := range st.Targets {
		tl := l.target(name)
		tl.gaps = ts.Gaps
		for _, rec := range ts.Records {
			_ = l.ApplyRecord(name, rec, 0) // one logger's own records fit
		}
		// ApplyRecord counted no full entries; restore the recorded baseline.
		tl.fullEntries = ts.FullEntries
	}
	return l
}

// ExportTarget captures one target's serialized history — the shard
// handoff transfer unit — or false if the logger has never seen it.
// The history is append-only, so the export is a view of it, not a
// copy: the slices are clipped to their length, a later Append or
// MarkGap on this logger lands beyond them (in place or in a regrown
// array) and never inside, and an append to the view reallocates
// instead of writing into the live log. The export therefore stays
// stable while the exporting shard keeps appending, at a cost
// independent of how long the history is.
func (l *Logger) ExportTarget(name string) (TargetState, bool) {
	tl := l.targets[name]
	if tl == nil {
		return TargetState{}, false
	}
	nr, ng := len(tl.Records), len(tl.gaps)
	return TargetState{
		Records:     tl.Records[:nr:nr],
		Gaps:        tl.gaps[:ng:ng],
		FullEntries: tl.fullEntries,
	}, true
}

// ImportTarget replaces one target's history with ts, leaving every
// other target untouched — the receiving side of a shard handoff. The
// materialized tables and storage counters are rebuilt by replaying the
// recorded delta chain, exactly as FromState does for a whole logger,
// so Append continues the chain seamlessly.
func (l *Logger) ImportTarget(name string, ts TargetState) {
	delete(l.targets, name)
	tl := l.target(name)
	tl.gaps = append([]GapMark(nil), ts.Gaps...)
	for _, rec := range ts.Records {
		_ = l.ApplyRecord(name, rec, 0) // the exporter's own records fit
	}
	tl.fullEntries = ts.FullEntries
}

// Remove drops one target's history — a handoff's old owner's side.
func (l *Logger) Remove(name string) {
	delete(l.targets, name)
}
