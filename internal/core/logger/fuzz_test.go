package logger

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

// refLog is the delta logger as it stood before the sorted walk: the
// materialised tables are hash maps, a cycle is diffed by mark and sweep
// over them, and removal sets and materialised tables are sorted on the
// way out. Kept verbatim as the oracle of FuzzAppendMatchesMapDiff.
type refLog struct {
	Records      []CycleRecord
	lastPairs    map[pairKey]tables.PairEntry
	lastRoutes   map[addr.Prefix]tables.RouteEntry
	fullEntries  uint64
	deltaEntries uint64
}

func newRefLog() *refLog {
	return &refLog{
		lastPairs:  make(map[pairKey]tables.PairEntry),
		lastRoutes: make(map[addr.Prefix]tables.RouteEntry),
	}
}

func (tl *refLog) Append(sn *tables.Snapshot) CycleRecord {
	rec := CycleRecord{At: sn.At, SACache: len(sn.SAs), MBGPRoutes: len(sn.MBGP)}

	seenP := make(map[pairKey]bool, len(sn.Pairs))
	seenR := make(map[addr.Prefix]bool, len(sn.Routes))
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

func (tl *refLog) ApplyRecord(rec CycleRecord, fullEntries uint64) {
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

func (tl *refLog) Materialized(target string) *tables.Snapshot {
	at := tl.Records[len(tl.Records)-1].At
	sn := &tables.Snapshot{Target: target, At: at}
	sn.Pairs = make(tables.PairTable, 0, len(tl.lastPairs))
	for _, e := range tl.lastPairs {
		if !e.Since.IsZero() {
			e.Uptime = at.Sub(e.Since)
		}
		sn.Pairs = append(sn.Pairs, e)
	}
	sn.Routes = make(tables.RouteTable, 0, len(tl.lastRoutes))
	for _, e := range tl.lastRoutes {
		if !e.Since.IsZero() {
			e.Uptime = at.Sub(e.Since)
		}
		sn.Routes = append(sn.Routes, e)
	}
	sortPairs(sn.Pairs)
	sortRoutes(sn.Routes)
	return sn
}

// Reconstruct replays the first idx+1 records into a fresh reference
// log and materialises it: both tables as of cycle idx.
func (tl *refLog) Reconstruct(target string, idx int) *tables.Snapshot {
	at := newRefLog()
	for _, rec := range tl.Records[:idx+1] {
		at.ApplyRecord(rec, 0)
	}
	return at.Materialized(target)
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

// The pools the scripted tables draw from, in key order.
var (
	fuzzPrefixes = func() []addr.Prefix {
		out := make([]addr.Prefix, 8)
		for i := range out {
			out[i] = addr.PrefixFrom(addr.V4(10, byte(i), 0, 0), 16)
		}
		return out
	}()
	fuzzPairKeys = func() []pairKey {
		out := make([]pairKey, 6)
		for i := range out {
			out[i] = pairKey{Group: addr.V4(224, 2, 0, byte(1+i/2)), Source: addr.V4(10, 0, 0, byte(1+i%2))}
		}
		return out
	}()
)

// fuzzRow is one pool entry's state across cycles: when it came up, and
// a content counter a change bumps.
type fuzzRow struct {
	since time.Time
	rev   int
	up    bool
}

// fuzzTable reads one byte per pool entry off data — absent, unchanged,
// content changed, uptime reset, listed twice with different contents,
// or listed before its predecessor — updates the entries' state and
// calls list(i, k) for the k-th row of entry i, in table order. It
// reports whether the table came out in key order and whether it lists
// a key twice.
func fuzzTable(data []byte, pool []fuzzRow, at time.Time, list func(i, k int), swapLastTwo func()) (rest []byte, sorted, duplicates bool) {
	sorted = true
	listed := 0
	for i := range pool {
		var b byte
		if len(data) > 0 {
			b, data = data[0], data[1:]
		}
		r, op := &pool[i], b%8
		if op == 0 {
			r.up = false
			continue
		}
		if !r.up || op == 3 {
			r.up, r.since = true, at.Add(-time.Duration(b>>3)*time.Minute)
		}
		if op == 2 {
			r.rev++
		}
		list(i, 0)
		listed++
		switch {
		case op == 5:
			list(i, 1)
			listed++
			duplicates = true
		case op == 6 && listed > 1:
			swapLastTwo()
			sorted = false
		}
	}
	return data, sorted, duplicates
}

// FuzzAppendMatchesMapDiff drives the logger and the map-based reference
// it replaced through the same scripted history of one target and
// compares them after every cycle.
//
// data scripts the run. Each cycle reads one control byte — a gap, empty
// tables, whole-table turnover (every entry comes up afresh with new
// content), or plain tables — and then one byte per pool entry; see
// fuzzTable.
//
// A cycle whose tables are in key order and duplicate-free must log the
// reference's record, entry for entry, whatever came before it. Always
// equal: the materialised tables, every cycle's reconstruction, the
// full-entry count, and the tables of a logger rebuilt from either
// side's records (the reference's are what a WAL written before the
// walk holds: upserts in arrival order, a key possibly twice). The
// delta-entry count is compared until the first duplicate key: the
// reference logged both rows of a key listed twice, the walk logs the
// one that wins.
func FuzzAppendMatchesMapDiff(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 5, 1, 6, 1, 0, 2, 3, 4, 6, 5, 1, 1, 1, 1, 1, 3, 0, 2, 1, 1, 0, 2, 1, 1, 1, 1, 3, 2, 1})
	// 240 seeded cycles, so a plain `go test` already covers a long run.
	// Most entries stay as they are, as in a real table.
	perCycle := 1 + len(fuzzPrefixes) + len(fuzzPairKeys)
	rng := sim.NewRNG(23)
	long := make([]byte, 240*perCycle)
	for i := range long {
		long[i] = byte(rng.Intn(256))
		if i%perCycle != 0 && rng.Intn(4) > 0 {
			long[i] = 1
		}
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		const target = "fixw"
		got, want := New(), newRefLog()
		routes := make([]fuzzRow, len(fuzzPrefixes))
		pairs := make([]fuzzRow, len(fuzzPairKeys))
		at := sim.Epoch
		noDuplicates := true
		for cycle := 0; len(data) > 0; cycle++ {
			ctl := data[0] % 8
			data = data[1:]
			at = at.Add(30 * time.Minute)
			if ctl == 0 {
				got.MarkGap(target, at, "scripted gap")
				continue
			}
			sn := &tables.Snapshot{Target: target, At: at}
			wellFormed := true
			if ctl == 1 {
				clear(routes)
				clear(pairs)
			} else {
				if ctl == 2 {
					for i := range routes {
						routes[i] = fuzzRow{rev: routes[i].rev + 1}
					}
					for i := range pairs {
						pairs[i] = fuzzRow{rev: pairs[i].rev + 1}
					}
				}
				var sortedR, sortedP, dupR, dupP bool
				data, sortedR, dupR = fuzzTable(data, routes, at, func(i, k int) {
					r := routes[i]
					sn.Routes = append(sn.Routes, tables.RouteEntry{Prefix: fuzzPrefixes[i], Metric: 1 + r.rev%30 + k, Since: r.since, Uptime: at.Sub(r.since)})
				}, func() {
					m := len(sn.Routes)
					sn.Routes[m-1], sn.Routes[m-2] = sn.Routes[m-2], sn.Routes[m-1]
				})
				data, sortedP, dupP = fuzzTable(data, pairs, at, func(i, k int) {
					r, key := pairs[i], fuzzPairKeys[i]
					sn.Pairs = append(sn.Pairs, tables.PairEntry{Source: key.Source, Group: key.Group, Flags: "D", RateKbps: float64(r.rev + k), Packets: uint64(cycle), Since: r.since, Uptime: at.Sub(r.since)})
				}, func() {
					m := len(sn.Pairs)
					sn.Pairs[m-1], sn.Pairs[m-2] = sn.Pairs[m-2], sn.Pairs[m-1]
				})
				wellFormed = sortedR && sortedP && !dupR && !dupP
				noDuplicates = noDuplicates && !dupR && !dupP
			}
			givenP, givenR := append(tables.PairTable(nil), sn.Pairs...), append(tables.RouteTable(nil), sn.Routes...)
			gotRec, wantRec := got.Append(sn), want.Append(sn)
			if !reflect.DeepEqual(sn.Pairs, givenP) || !reflect.DeepEqual(sn.Routes, givenR) {
				t.Fatalf("cycle %d: Append wrote to the snapshot's tables", cycle)
			}
			if wellFormed && !reflect.DeepEqual(gotRec, wantRec) {
				t.Fatalf("cycle %d: record differs from the map diff's on well-formed input\ngot:  %+v\nwant: %+v", cycle, gotRec, wantRec)
			}

			gotSn, ok := got.Materialized(target)
			if wantSn := want.Materialized(target); !ok || !reflect.DeepEqual(gotSn, wantSn) {
				t.Fatalf("cycle %d: materialised tables differ\ngot:  %+v\nwant: %+v", cycle, gotSn, wantSn)
			}
			gotDelta, gotFull, gotRatio := got.StorageStats(target)
			if gotFull != want.fullEntries {
				t.Fatalf("cycle %d: %d full entries, reference %d", cycle, gotFull, want.fullEntries)
			}
			if noDuplicates && (gotDelta != want.deltaEntries || gotDelta > 0 && gotRatio != float64(gotFull)/float64(gotDelta)) {
				t.Fatalf("cycle %d: %d delta entries (ratio %v), reference %d", cycle, gotDelta, gotRatio, want.deltaEntries)
			}
		}
		if len(want.Records) == 0 {
			return
		}

		// The logger rebuilt from its own export and from the reference's
		// records, and reconstructions of the early cycles, every
		// seventh after them, and the last.
		own, fromRef := FromState(got.ExportState()), New()
		for _, rec := range want.Records {
			fromRef.ApplyRecord(target, rec, 0)
		}
		loggers := []struct {
			name string
			l    *Logger
		}{{"the live logger", got}, {"its own export", own}, {"the reference's records", fromRef}}
		last := len(want.Records) - 1
		for idx := range want.Records {
			if idx > 16 && idx%7 != 0 && idx != last {
				continue
			}
			wantSn := want.Reconstruct(target, idx)
			for _, c := range loggers {
				p, err1 := c.l.ReconstructPairs(target, idx)
				r, err2 := c.l.ReconstructRoutes(target, idx)
				if err1 != nil || err2 != nil || !reflect.DeepEqual(p, wantSn.Pairs) || !reflect.DeepEqual(r, wantSn.Routes) {
					t.Fatalf("cycle %d reconstructed from %s differs (%v, %v)\ngot:  %+v %+v\nwant: %+v %+v", idx, c.name, err1, err2, p, r, wantSn.Pairs, wantSn.Routes)
				}
			}
		}
		wantSn := want.Materialized(target)
		for _, c := range loggers[1:] {
			if sn, ok := c.l.Materialized(target); !ok || !reflect.DeepEqual(sn, wantSn) {
				t.Fatalf("logger rebuilt from %s materialises differently\ngot:  %+v\nwant: %+v", c.name, sn, wantSn)
			}
		}
		d1, f1, _ := got.StorageStats(target)
		d2, f2, _ := own.StorageStats(target)
		if d1 != d2 || f1 != f2 || !reflect.DeepEqual(own.Gaps(target), got.Gaps(target)) {
			t.Fatalf("FromState(ExportState()) changed the storage stats or gaps: %d/%d vs %d/%d", d2, f2, d1, f1)
		}
	})
}
