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
// Any cycle's full tables can be reconstructed by replaying deltas. The
// log keeps each cycle's deltas in the encoding its WAL frame and the
// checkpoint write (codec.go), and decodes them when they are read.
package logger

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/core/seglog"
	"repro/internal/core/tables"
)

// pairKey identifies a pair-table entry.
type pairKey struct {
	Source addr.IP
	Group  addr.IP
}

// PairDelta is the pair-table change set of one cycle. Upserted holds
// the rows whose key is new or whose Flags or Since changed, counters
// zeroed; Counters is the column (codec.go) of every pair's
// Packets and RateKbps against the previous cycle's, nil if none moved.
type PairDelta struct {
	Upserted []tables.PairEntry
	Removed  []pairKey
	Counters []byte
}

// RouteDelta is one cycle's route-table change set: whole rows, gone prefixes.
type RouteDelta struct {
	Upserted []tables.RouteEntry
	Removed  []addr.Prefix
}

// CycleRecord is one logged monitoring cycle for one target.
//
// A record comes in one of two forms. Append, Record and decoding hand
// out decoded records: Pairs and Routes hold the change sets. The log
// itself keeps each cycle as the bytes the WAL frame and the checkpoint
// write (codec.go): At and the magnitudes, and the change sets encoded
// in body, Pairs and Routes left empty. Those are the records
// TargetState.Records views and AppendEncoded returns; Record decodes
// them, and Store.AppendDelta writes their bytes as they are.
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
	// body is the encoded change sets of a record the log keeps, nil on
	// a decoded one. It is never written once made, and quiet cycles
	// share one.
	body []byte
}

// GapMark records one failed collection cycle: no snapshot arrived at At,
// so the delta chain has an explicit hole there instead of a silent one.
type GapMark struct {
	At     time.Time
	Reason string
}

// targetLog accumulates one collection point's history.
type targetLog struct {
	// Records are the logged cycles in the form the log keeps them,
	// their change sets encoded.
	Records []CycleRecord
	// gaps lists the failed cycles interleaved with Records.
	gaps []GapMark
	// pairs and routes are the tables as of the latest record, in key
	// order and duplicate-free (the form tables' Walk returns): what the
	// next cycle is compared with. After an Append they are the
	// snapshot's own tables, shared with whoever else holds the snapshot;
	// after a replay, what patch made. Either way they are never written.
	pairs  tables.PairTable
	routes tables.RouteTable
	// latest is the snapshot the last Append took, nil after a replay
	// or an import, which carry deltas only.
	latest *tables.Snapshot
	// fullEntries counts what full-snapshot storage would have used.
	fullEntries  uint64
	deltaEntries uint64
}

// Logger stores delta-encoded history per collection point. Like the
// cycle core that drives it, it belongs to one goroutine at a time.
type Logger struct {
	targets map[string]*targetLog
	// AppendEncoded's scratch, shared by every target: a cycle's change
	// sets, its counter rows and column, and their encoding.
	pairs           PairDelta
	routes          RouteDelta
	rows, col, body []byte
}

// New returns an empty logger.
func New() *Logger {
	return &Logger{targets: make(map[string]*targetLog)}
}

// identity strips a pair row to what Upserted logs: the counters, which
// move every cycle, travel in the column.
func identity(e tables.PairEntry) tables.PairEntry {
	return tables.PairEntry{Source: e.Source, Group: e.Group, Flags: e.Flags, Since: e.Since}
}

func (l *Logger) target(name string) *targetLog {
	tl := l.targets[name]
	if tl == nil {
		tl = &targetLog{}
		l.targets[name] = tl
	}
	return tl
}

// Append logs one cycle snapshot as AppendEncoded does and returns the
// record decoded: the delta against the previous cycle of the same
// target, upserts and removals in key order.
func (l *Logger) Append(sn *tables.Snapshot) CycleRecord {
	rec, _ := l.AppendEncoded(sn).decoded() // the log's own bytes decode
	return rec
}

// AppendEncoded logs one cycle snapshot, computing deltas against the
// previous cycle of the same target, and returns the record as the log
// keeps it, its change sets encoded: what Store.AppendDelta writes as it
// is, so a durable archive persists exactly what the in-memory log
// holds.
//
// The snapshot's tables are walked against the previous cycle's in key
// order, and are then kept — by reference, not copied — as the next
// cycle's predecessor, and the snapshot as the target's Latest: a
// snapshot handed to Append must not be written afterwards. The walk
// gathers the change sets in the logger's scratch, appendChanges
// encodes them there, and the record gets one copy of the bytes at
// their exact length; a cycle in which nothing changed shares quietBody
// and allocates nothing.
func (l *Logger) AppendEncoded(sn *tables.Snapshot) CycleRecord {
	tl := l.target(sn.Target)
	p, r := &l.pairs, &l.routes
	p.Upserted, p.Removed = p.Upserted[:0], p.Removed[:0]
	r.Upserted, r.Removed = r.Upserted[:0], r.Removed[:0]
	l.rows = l.rows[:0]
	moved := false
	tl.pairs = tl.pairs.Walk(sn.Pairs, func(old, cur *tables.PairEntry) {
		if cur == nil {
			p.Removed = append(p.Removed, pairKey{Source: old.Source, Group: old.Group})
			return
		}
		var packets, rate uint64 // a new key's predecessor counts nothing
		if old != nil {
			packets, rate = old.Packets, math.Float64bits(old.RateKbps)
		}
		if old == nil || identity(*old) != identity(*cur) {
			p.Upserted = append(p.Upserted, identity(*cur))
		}
		d, rt := cur.Packets-packets, math.Float64bits(cur.RateKbps)
		l.rows = appendCounter(l.rows, d, rt, rt != rate)
		moved = moved || d != 0 || rt != rate
	})
	p.Counters = nil
	if moved { // the column: the table's row count, then its rows
		l.col = append(seglog.AppendUvarint(l.col[:0], uint64(len(tl.pairs))), l.rows...)
		p.Counters = l.col
	}
	tl.routes = tl.routes.Walk(sn.Routes, func(old, cur *tables.RouteEntry) {
		switch {
		case cur == nil:
			r.Removed = append(r.Removed, old.Prefix)
		case old == nil || *old != *cur:
			r.Upserted = append(r.Upserted, *cur)
		}
	})

	l.body = appendChanges(l.body[:0], *p, *r)
	rec := CycleRecord{At: sn.At, SACache: len(sn.SAs), MBGPRoutes: len(sn.MBGP), body: own(l.body)}
	tl.latest = sn
	tl.Records = append(tl.Records, rec)
	tl.fullEntries += uint64(len(sn.Pairs) + len(sn.Routes))
	tl.deltaEntries += deltaSize(CycleRecord{Pairs: *p, Routes: *r})
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

// ApplyRecord appends a pre-computed delta record, decoded or in the
// form the log keeps — the replay path of the durable archive and of an
// import. The record must have been produced by Append against the same
// history prefix; fullEntries is the full-snapshot entry count of the
// cycle that produced it, restoring the storage-stats baseline. A record
// whose counter column does not fit is logged all the same, its pairs
// keeping their counters, and reported as ErrBadRecord.
func (l *Logger) ApplyRecord(target string, rec CycleRecord, fullEntries uint64) error {
	dec, err := rec.decoded()
	if err != nil {
		return err
	}
	body := rec.body
	if body == nil {
		body = own(appendChanges(nil, rec.Pairs, rec.Routes))
	}
	return l.apply(target, dec, body, fullEntries)
}

// apply patches target's tables with a decoded record and keeps it as
// body, its change sets' encoding.
func (l *Logger) apply(target string, dec CycleRecord, body []byte, fullEntries uint64) error {
	tl := l.target(target)
	var err error
	tl.pairs, err = patchPairs(tl.pairs, dec.Pairs)
	tl.routes = patchRoutes(tl.routes, dec.Routes)
	tl.latest = nil
	tl.Records = append(tl.Records, CycleRecord{At: dec.At, SACache: dec.SACache, MBGPRoutes: dec.MBGPRoutes, body: body})
	tl.fullEntries += fullEntries
	tl.deltaEntries += deltaSize(dec)
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
// cycle: a reconstruction of the final cycle without replaying the chain,
// in the log's own tables, which the caller must not write.
func (l *Logger) Materialized(target string) (*tables.Snapshot, bool) {
	tl := l.targets[target]
	if tl == nil || len(tl.Records) == 0 {
		return nil, false
	}
	return &tables.Snapshot{Target: target, At: tl.Records[len(tl.Records)-1].At, Pairs: tl.pairs, Routes: tl.routes}, true
}

// Latest returns the target's most recent snapshot, nil before its
// first logged cycle: the one Append last took, or after a replay or an
// import, which carry deltas only, the tables Materialized returns.
func (l *Logger) Latest(target string) *tables.Snapshot {
	if tl := l.targets[target]; tl != nil && tl.latest != nil {
		return tl.latest
	}
	sn, _ := l.Materialized(target)
	return sn
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

// ReconstructPairs decodes and replays the pair half of each kept
// record to materialize the pair table as it was at cycle idx (0-based).
func (l *Logger) ReconstructPairs(target string, idx int) (tables.PairTable, error) {
	tl := l.targets[target]
	if tl == nil || idx < 0 || idx >= len(tl.Records) {
		return nil, fmt.Errorf("logger: no cycle %d for %q", idx, target)
	}
	var state tables.PairTable
	for _, rec := range tl.Records[:idx+1] {
		state, _ = patchPairs(state, rec.reader().pairDelta()) // a misfit as ApplyRecord took it
	}
	return state, nil
}

// ReconstructRoutes replays the route half of each kept record, the pair
// half stepped over unread, to materialize the route table at cycle idx.
func (l *Logger) ReconstructRoutes(target string, idx int) (tables.RouteTable, error) {
	tl := l.targets[target]
	if tl == nil || idx < 0 || idx >= len(tl.Records) {
		return nil, fmt.Errorf("logger: no cycle %d for %q", idx, target)
	}
	var state tables.RouteTable
	for _, rec := range tl.Records[:idx+1] {
		r := rec.reader()
		r.skipPairs()
		state = patchRoutes(state, r.routeDelta())
	}
	return state, nil
}

// Record returns the delta record of cycle idx, decoded from the bytes
// the log keeps; its counter column is a slice of them and must not be
// written.
func (l *Logger) Record(target string, idx int) (CycleRecord, error) {
	tl := l.targets[target]
	if tl == nil || idx < 0 || idx >= len(tl.Records) {
		return CycleRecord{}, fmt.Errorf("logger: no cycle %d for %q", idx, target)
	}
	return tl.Records[idx].decoded()
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

// TargetState is one target's history: the shard handoff's transfer
// unit. Records are in the form the log keeps them, change sets encoded.
type TargetState struct {
	Records []CycleRecord
	Gaps    []GapMark
	// FullEntries is the full-snapshot storage baseline counter.
	FullEntries uint64
}

// ExportTarget captures one target's history — the shard handoff
// transfer unit — or false if the logger has never seen it. The history
// is append-only and its records' bytes are never written, so the
// export is a view of it, not a copy: the slices are clipped to their
// length, a later Append or MarkGap on this logger lands beyond them (in
// place or in a regrown array) and never inside, and an append to the
// view reallocates instead of writing into the live log. The export
// therefore stays stable while the exporting shard keeps appending, at a
// cost independent of how long the history is.
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
// materialized tables and storage counters are rebuilt by decoding and
// replaying the recorded delta chain, exactly as a checkpoint's decoder
// does for every target, so Append continues the chain seamlessly; the
// records' bytes are shared with the exporter, not copied.
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
