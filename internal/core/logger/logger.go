// Package logger implements Mantra's Data Logger module: it persists each
// monitoring cycle for off-line and long-term trend analysis while
// conserving storage the way the paper describes —
//
//   - deltas only: instead of whole tables, only the entries that were
//     added, removed or changed since the previous cycle are stored
//     (very effective for the slowly-changing route table);
//   - no redundancy: the Participant and Session tables are derivable
//     from the Pair table, so they are never logged at all.
//
// Any cycle's full tables can be reconstructed by replaying deltas.
package logger

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/core/tables"
)

// pairKey identifies a pair-table entry.
//
//mantra:codec pair=ckpt-pairkey magic=ckptMagic shape=0d1f78c4141e06d8
type pairKey struct {
	Source addr.IP
	Group  addr.IP
}

// PairDelta is the pair-table change set of one cycle. Changed entries
// appear in Upserted with their new contents.
type PairDelta struct {
	Upserted []tables.PairEntry
	Removed  []pairKey
}

// RouteDelta is the route-table change set of one cycle.
type RouteDelta struct {
	Upserted []tables.RouteEntry
	Removed  []addr.Prefix
}

// CycleRecord is one logged monitoring cycle for one target.
//
//mantra:codec pair=ckpt-cyclerecord magic=ckptMagic shape=fb72130746e3a759
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
//
//mantra:codec pair=ckpt-gapmark magic=ckptMagic shape=79b9c1d781df45e6
type GapMark struct {
	At     time.Time
	Reason string
}

// targetLog accumulates one collection point's history.
type targetLog struct {
	Records []CycleRecord
	// gaps lists the failed cycles interleaved with Records.
	gaps []GapMark
	// last* is the materialized latest state, used to compute deltas.
	lastPairs  map[pairKey]tables.PairEntry
	lastRoutes map[addr.Prefix]tables.RouteEntry
	// seen* are Append's per-cycle scratch sets, kept here and cleared
	// between cycles so the diff allocates no fresh maps at steady state.
	seenP map[pairKey]bool
	seenR map[addr.Prefix]bool
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

// normPair strips the per-cycle aging field: the absolute Since instant
// carries the same information and is stable while the entry persists.
func normPair(e tables.PairEntry) tables.PairEntry {
	e.Uptime = 0
	return e
}

func normRoute(e tables.RouteEntry) tables.RouteEntry {
	e.Uptime = 0
	return e
}

func (l *Logger) target(name string) *targetLog {
	tl := l.targets[name]
	if tl == nil {
		tl = &targetLog{
			lastPairs:  make(map[pairKey]tables.PairEntry),
			lastRoutes: make(map[addr.Prefix]tables.RouteEntry),
		}
		l.targets[name] = tl
	}
	return tl
}

// Append logs one cycle snapshot, computing deltas against the previous
// cycle of the same target. It returns the delta record it stored, so a
// durable archive can persist exactly what the in-memory log holds.
//
// The budget covers the delta-set appends and sort closures — the
// record being built is returned, so its slices cannot be pooled; the
// per-cycle scratch maps are reused via targetLog.
//
//mantra:hotpath budget=7
func (l *Logger) Append(sn *tables.Snapshot) CycleRecord {
	tl := l.target(sn.Target)
	rec := CycleRecord{At: sn.At, SACache: len(sn.SAs), MBGPRoutes: len(sn.MBGP)}

	if tl.seenP == nil {
		tl.seenP = make(map[pairKey]bool, len(sn.Pairs))
		tl.seenR = make(map[addr.Prefix]bool, len(sn.Routes))
	} else {
		clear(tl.seenP)
		clear(tl.seenR)
	}
	seenP, seenR := tl.seenP, tl.seenR
	for _, e := range sn.Pairs {
		e = normPair(e)
		k := pairKey{Source: e.Source, Group: e.Group}
		seenP[k] = true
		if old, ok := tl.lastPairs[k]; !ok || old != e {
			rec.Pairs.Upserted = append(rec.Pairs.Upserted, e)
			tl.lastPairs[k] = e
		}
	}
	for k := range tl.lastPairs {
		if !seenP[k] {
			rec.Pairs.Removed = append(rec.Pairs.Removed, k)
			delete(tl.lastPairs, k)
		}
	}
	// The removal sets come off map iteration; sort them so the record —
	// and anything derived from it, like archive WAL frames — is
	// byte-deterministic for a given history.
	sort.Slice(rec.Pairs.Removed, func(i, j int) bool {
		a, b := rec.Pairs.Removed[i], rec.Pairs.Removed[j]
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.Source < b.Source
	})

	for _, e := range sn.Routes {
		e = normRoute(e)
		seenR[e.Prefix] = true
		if old, ok := tl.lastRoutes[e.Prefix]; !ok || old != e {
			rec.Routes.Upserted = append(rec.Routes.Upserted, e)
			tl.lastRoutes[e.Prefix] = e
		}
	}
	for p := range tl.lastRoutes {
		if !seenR[p] {
			rec.Routes.Removed = append(rec.Routes.Removed, p)
			delete(tl.lastRoutes, p)
		}
	}
	sort.Slice(rec.Routes.Removed, func(i, j int) bool {
		return rec.Routes.Removed[i].Compare(rec.Routes.Removed[j]) < 0
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

// ApplyRecord appends a pre-computed delta record — the replay path of the
// durable archive. The record must have been produced by Append against
// the same history prefix; fullEntries is the full-snapshot entry count of
// the cycle that produced it, restoring the storage-stats baseline.
func (l *Logger) ApplyRecord(target string, rec CycleRecord, fullEntries uint64) {
	tl := l.target(target)
	for _, e := range rec.Pairs.Upserted {
		tl.lastPairs[pairKey{Source: e.Source, Group: e.Group}] = e
	}
	for _, k := range rec.Pairs.Removed {
		delete(tl.lastPairs, k)
	}
	for _, e := range rec.Routes.Upserted {
		tl.lastRoutes[e.Prefix] = e
	}
	for _, p := range rec.Routes.Removed {
		delete(tl.lastRoutes, p)
	}
	tl.Records = append(tl.Records, rec)
	tl.fullEntries += fullEntries
	tl.deltaEntries += deltaSize(rec)
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
	sn := &tables.Snapshot{Target: target, At: at}
	sn.Pairs = make(tables.PairTable, 0, len(tl.lastPairs))
	for _, e := range tl.lastPairs {
		if !e.Since.IsZero() {
			e.Uptime = at.Sub(e.Since)
		}
		//mantralint:allow sertaint sortPairs below orders the table before the snapshot leaves
		sn.Pairs = append(sn.Pairs, e)
	}
	sn.Routes = make(tables.RouteTable, 0, len(tl.lastRoutes))
	for _, e := range tl.lastRoutes {
		if !e.Since.IsZero() {
			e.Uptime = at.Sub(e.Since)
		}
		//mantralint:allow sertaint sortRoutes below orders the table before the snapshot leaves
		sn.Routes = append(sn.Routes, e)
	}
	sortPairs(sn.Pairs)
	sortRoutes(sn.Routes)
	return sn, true
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
	state := make(map[pairKey]tables.PairEntry)
	for i := 0; i <= idx; i++ {
		for _, e := range tl.Records[i].Pairs.Upserted {
			state[pairKey{Source: e.Source, Group: e.Group}] = e
		}
		for _, k := range tl.Records[i].Pairs.Removed {
			delete(state, k)
		}
	}
	at := tl.Records[idx].At
	out := make(tables.PairTable, 0, len(state))
	for _, e := range state {
		if !e.Since.IsZero() {
			e.Uptime = at.Sub(e.Since)
		}
		out = append(out, e)
	}
	sortPairs(out)
	return out, nil
}

// ReconstructRoutes replays deltas to materialize the route table at
// cycle idx.
func (l *Logger) ReconstructRoutes(target string, idx int) (tables.RouteTable, error) {
	tl := l.targets[target]
	if tl == nil || idx < 0 || idx >= len(tl.Records) {
		return nil, fmt.Errorf("logger: no cycle %d for %q", idx, target)
	}
	state := make(map[addr.Prefix]tables.RouteEntry)
	for i := 0; i <= idx; i++ {
		for _, e := range tl.Records[i].Routes.Upserted {
			state[e.Prefix] = e
		}
		for _, p := range tl.Records[i].Routes.Removed {
			delete(state, p)
		}
	}
	at := tl.Records[idx].At
	out := make(tables.RouteTable, 0, len(state))
	for _, e := range state {
		if !e.Since.IsZero() {
			e.Uptime = at.Sub(e.Since)
		}
		out = append(out, e)
	}
	sortRoutes(out)
	return out, nil
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
// snapshots would have stored, and the resulting compression ratio.
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
//
//mantra:codec pair=ckpt-loggertarget magic=ckptMagic shape=6f4556766cbca7d4
type TargetState struct {
	Records []CycleRecord
	Gaps    []GapMark
	// FullEntries is the full-snapshot storage baseline counter.
	FullEntries uint64
}

// State is the complete serialized form of a Logger — the payload of the
// durable archive's checkpoints.
//
//mantra:codec pair=ckpt-loggerstate magic=ckptMagic shape=2ba9fae4a5734fd2
type State struct {
	Targets map[string]TargetState
}

// ExportState captures the logger's full state for checkpointing.
//
//mantra:statetransfer component=logger seam=export
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
//
//mantra:statetransfer component=logger seam=import
func FromState(st *State) *Logger {
	l := New()
	if st == nil {
		return l
	}
	for name, ts := range st.Targets {
		tl := l.target(name)
		tl.gaps = ts.Gaps
		for _, rec := range ts.Records {
			l.ApplyRecord(name, rec, 0)
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
//
//mantra:statetransfer component=logger seam=export
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
//
//mantra:statetransfer component=logger seam=import
func (l *Logger) ImportTarget(name string, ts TargetState) {
	delete(l.targets, name)
	tl := l.target(name)
	tl.gaps = append([]GapMark(nil), ts.Gaps...)
	for _, rec := range ts.Records {
		l.ApplyRecord(name, rec, 0)
	}
	tl.fullEntries = ts.FullEntries
}

func sortPairs(p tables.PairTable) {
	sort.Slice(p, func(i, j int) bool {
		if p[i].Group != p[j].Group {
			return p[i].Group < p[j].Group
		}
		return p[i].Source < p[j].Source
	})
}

func sortRoutes(r tables.RouteTable) {
	sort.Slice(r, func(i, j int) bool { return r[i].Prefix.Compare(r[j].Prefix) < 0 })
}
