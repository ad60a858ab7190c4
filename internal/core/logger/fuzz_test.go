package logger

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core/seglog"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

// refLog is the delta logger as it stood before the sorted walk: the
// materialised tables are hash maps, a cycle is diffed by mark and sweep
// over them, and removal sets and materialised tables are sorted on the
// way out. Kept verbatim as the oracle of FuzzAppendMatchesMapDiff, but
// for the per-cycle Uptime it once cleared from each row it logged and
// restamped on each row it materialised: rows no longer carry one.
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
		sn.Pairs = append(sn.Pairs, e)
	}
	sn.Routes = make(tables.RouteTable, 0, len(tl.lastRoutes))
	for _, e := range tl.lastRoutes {
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
	// fuzzFlags are the flag strings a pair's content counter cycles
	// through: a content change is an identity change.
	fuzzFlags = [...]string{"D", "DT", "DP"}
)

// fuzzCounters picks a pair's counters off its scripted argument: a rate
// that is ordinary (following the content counter), +0, −0 or one of two
// NaNs, and a packet count that advances, stands still, is 0 or
// MaxUint64, runs backwards (a counter reset) or sits 2^63 from 0.
func fuzzCounters(arg byte, rev, cycle int) (float64, uint64) {
	rates := [...]float64{float64(rev), 0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0abc), float64(rev) + 0.5}
	packets := [...]uint64{uint64(cycle), 7, 0, math.MaxUint64, uint64(1000 - cycle), 1 << 63}
	return rates[arg%6], packets[arg/6%6]
}

// fuzzRow is one pool entry's state across cycles: when it came up, a
// content counter a change bumps, and the argument its last scripted
// byte carried.
type fuzzRow struct {
	since time.Time
	rev   int
	up    bool
	arg   byte
}

// fuzzTable reads one byte per pool entry off data — absent, unchanged,
// content changed, uptime reset, listed twice with different contents,
// or listed before its predecessor, in its low three bits; an argument
// in the rest — updates the entries' state and calls list(i, k) for the
// k-th row of entry i, in table order. It reports whether the table
// came out in key order and whether it lists a key twice.
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
		r.arg = b >> 3
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

// fuzzHistory scripts one target's tables cycle by cycle: the pools'
// state and the cycle clock.
type fuzzHistory struct {
	target        string
	routes, pairs []fuzzRow
	at            time.Time
}

func newFuzzHistory(target string) *fuzzHistory {
	return &fuzzHistory{target: target, routes: make([]fuzzRow, len(fuzzPrefixes)), pairs: make([]fuzzRow, len(fuzzPairKeys)), at: sim.Epoch}
}

// next reads one cycle off data, half an hour after the last: its
// control byte — a gap (nil snapshot), empty tables, whole-table
// turnover (every entry comes up afresh with new content), or plain
// tables — and then one byte per pool entry (see fuzzTable and
// fuzzCounters). It reports whether the tables are in key order and
// duplicate-free, and returns what is left of data.
func (h *fuzzHistory) next(data []byte, cycle int) (sn *tables.Snapshot, wellFormed bool, rest []byte) {
	ctl := data[0] % 8
	data = data[1:]
	h.at = h.at.Add(30 * time.Minute)
	at, routes, pairs := h.at, h.routes, h.pairs
	if ctl == 0 {
		return nil, false, data
	}
	sn = &tables.Snapshot{Target: h.target, At: at}
	if ctl == 1 {
		clear(routes)
		clear(pairs)
		return sn, true, data
	}
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
		sn.Routes = append(sn.Routes, tables.RouteEntry{Prefix: fuzzPrefixes[i], Metric: 1 + r.rev%30 + k, Since: r.since.UnixNano()})
	}, func() {
		m := len(sn.Routes)
		sn.Routes[m-1], sn.Routes[m-2] = sn.Routes[m-2], sn.Routes[m-1]
	})
	data, sortedP, dupP = fuzzTable(data, pairs, at, func(i, k int) {
		r, key := pairs[i], fuzzPairKeys[i]
		rate, packets := fuzzCounters(r.arg, r.rev+k, cycle)
		sn.Pairs = append(sn.Pairs, tables.PairEntry{Source: key.Source, Group: key.Group, Flags: fuzzFlags[(r.rev+k)%3], RateKbps: rate, Packets: packets, Since: r.since.UnixNano()})
	}, func() {
		m := len(sn.Pairs)
		sn.Pairs[m-1], sn.Pairs[m-2] = sn.Pairs[m-2], sn.Pairs[m-1]
	})
	return sn, sortedR && sortedP && !dupR && !dupP, data
}

// walked returns sn's tables as Append takes them: in key order, the
// last row of a key winning.
func walked(sn *tables.Snapshot) *tables.Snapshot {
	return &tables.Snapshot{Target: sn.Target, At: sn.At,
		Pairs:  tables.PairTable(nil).Walk(sn.Pairs, func(_, _ *tables.PairEntry) {}),
		Routes: tables.RouteTable(nil).Walk(sn.Routes, func(_, _ *tables.RouteEntry) {})}
}

// samePairs compares pair tables row for row. exact compares rates by
// their bits, so ±0 and NaN payloads must match too; otherwise rates
// compare by ==, as the reference compared them, except that a NaN
// equals the same NaN.
func samePairs(a, b tables.PairTable, exact bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.RateKbps) != math.Float64bits(y.RateKbps) && (exact || x.RateKbps != y.RateKbps) {
			return false
		}
		x.RateKbps, y.RateKbps = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// sameTables compares two cycles' tables row for row: an empty table
// equals a nil one.
func sameTables(a, b *tables.Snapshot, exact bool) bool {
	return a.Target == b.Target && a.At == b.At && samePairs(a.Pairs, b.Pairs, exact) && slices.Equal(a.Routes, b.Routes)
}

// FuzzAppendMatchesMapDiff drives the logger and the map-based reference
// it replaced through the same scripted history of one target and
// compares what their records mean after every cycle.
//
// data scripts the run. Each cycle reads one control byte — a gap, empty
// tables, whole-table turnover (every entry comes up afresh with new
// content), or plain tables — and then one byte per pool entry; see
// fuzzTable and fuzzCounters.
//
// Always equal, rates by their bits: the tables a cycle hands Append (in
// key order, the last row of a key winning) and the logger's
// materialised tables, and every cycle's reconstruction from the live
// logger and from loggers rebuilt from its export, from its records
// after a WAL payload round trip and from a checkpoint round trip.
// The reference compared rates with !=, so it logged no sign change of
// a zero rate and logged a NaN every cycle; it must agree under ==. On
// a cycle whose tables are in key order and duplicate-free, the
// reference's record upserts exactly the keys the logger's identity
// delta upserts plus those whose counters the reference saw change, and
// removes and changes routes exactly as the logger does.
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

	// The counter column's edge cases. A plain cycle leaves every route
	// as it is and scripts pair i with row(arg, op); an argument picks
	// rate arg%6 and packet count arg/6 of fuzzCounters' lists.
	row := func(arg, op byte) byte { return arg<<3 | op }
	plain := func(pairs ...byte) []byte { return append([]byte{3, 1, 1, 1, 1, 1, 1, 1, 1}, pairs...) }
	script := func(cycles ...[]byte) []byte { return bytes.Join(cycles, nil) }
	still := row(6, 1) // an ordinary rate over a packet count that stands still
	// Rates: −0, +0 and two NaNs over still packets on one pair, a rate
	// flipping back and forth on another.
	var rates [][]byte
	for c, a := range []byte{8, 7, 8, 9, 9, 10, 9, 7, 8, 8} {
		rates = append(rates, plain(row(a, 1), row(6+5*byte(c%2), 1), still, still, still, still))
	}
	f.Add(script(rates...))
	// Packets: running backwards, 0 ↔ MaxUint64, 0 ↔ 2^63 (the wide
	// escape), MaxUint64 ↔ 2^63, advancing, and a pair coming and going.
	var packets [][]byte
	for c := byte(0); c < 10; c++ {
		odd := c % 2
		packets = append(packets, plain(row(25, 1), row(13+6*odd, 1), row(13+18*odd, 1), row(19+12*odd, 1), row(1, 1), row(1, odd)))
	}
	f.Add(script(packets...))
	// Identity changes under counters that stand still: new flags, a
	// new start instant, both, then nothing.
	f.Add(script(
		plain(row(7, 1), row(7, 1), row(7, 1), row(7, 1), row(7, 1), row(7, 1)),
		plain(row(7, 2), row(7, 3), row(7, 1), row(7, 2), row(7, 1), row(7, 1)),
		plain(row(7, 2), row(7, 2), row(7, 3), row(7, 1), row(7, 1), row(7, 1)),
		plain(row(7, 1), row(7, 1), row(7, 1), row(7, 1), row(7, 1), row(7, 1)),
	))
	// Duplicate and out-of-order rows carrying the edge values, gaps,
	// empty tables and whole-table turnover.
	f.Add(script(
		plain(row(8, 1), row(9, 5), row(19, 6), row(31, 1), row(10, 5), row(13, 6)),
		[]byte{0},
		plain(row(7, 5), row(8, 1), row(9, 6), row(13, 5), row(31, 6), row(19, 1)),
		[]byte{1},
		[]byte{1},
		plain(row(25, 1), row(19, 1), row(8, 1), row(9, 1), row(0, 1), row(1, 1)),
		[]byte{0, 0},
		append([]byte{2, 1, 1, 1, 1, 1, 1, 1, 1}, row(9, 1), row(8, 5), row(31, 6), row(19, 1), row(10, 1), row(7, 6)),
		plain(row(9, 1), row(8, 1), row(31, 1), row(19, 1), row(10, 1), row(7, 1)),
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		const target = "fixw"
		got, want := New(), newRefLog()
		h := newFuzzHistory(target)
		// given holds each logged cycle's tables as Append takes them: in
		// key order, the last row of a key winning.
		var given []*tables.Snapshot
		var prev tables.PairTable
		for cycle := 0; len(data) > 0; cycle++ {
			var sn *tables.Snapshot
			var wellFormed bool
			if sn, wellFormed, data = h.next(data, cycle); sn == nil {
				got.MarkGap(target, h.at, "scripted gap")
				continue
			}
			givenP, givenR := append(tables.PairTable(nil), sn.Pairs...), append(tables.RouteTable(nil), sn.Routes...)
			gotRec, wantRec := got.Append(sn), want.Append(sn)
			if !samePairs(sn.Pairs, givenP, true) || !reflect.DeepEqual(sn.Routes, givenR) {
				t.Fatalf("cycle %d: Append wrote to the snapshot's tables", cycle)
			}
			cur := walked(sn)
			given = append(given, cur)

			for _, e := range gotRec.Pairs.Upserted {
				if e.RateKbps != 0 || math.Signbit(e.RateKbps) || e.Packets != 0 {
					t.Fatalf("cycle %d: identity upsert carries counters: %+v", cycle, e)
				}
			}
			if wellFormed {
				// The keys the reference upserted: the identity delta's,
				// plus those whose counters it saw change.
				ids := make(map[pairKey]bool)
				for _, e := range gotRec.Pairs.Upserted {
					ids[pairKey{Source: e.Source, Group: e.Group}] = true
				}
				last := make(map[pairKey]tables.PairEntry)
				for _, e := range prev {
					last[pairKey{Source: e.Source, Group: e.Group}] = e
				}
				var gotKeys, wantKeys []pairKey
				for _, e := range cur.Pairs {
					k := pairKey{Source: e.Source, Group: e.Group}
					if old := last[k]; ids[k] || old.Packets != e.Packets || old.RateKbps != e.RateKbps {
						gotKeys = append(gotKeys, k)
					}
				}
				for _, e := range wantRec.Pairs.Upserted {
					wantKeys = append(wantKeys, pairKey{Source: e.Source, Group: e.Group})
				}
				if !reflect.DeepEqual(gotKeys, wantKeys) || !reflect.DeepEqual(gotRec.Pairs.Removed, wantRec.Pairs.Removed) || !reflect.DeepEqual(gotRec.Routes, wantRec.Routes) {
					t.Fatalf("cycle %d: record means something else than the map diff's on well-formed input\ngot:  %+v upserting %v\nwant: %+v upserting %v", cycle, gotRec, gotKeys, wantRec, wantKeys)
				}
			}
			prev = cur.Pairs

			gotSn, ok := got.Materialized(target)
			if !ok || !sameTables(gotSn, cur, true) || !sameTables(gotSn, want.Materialized(target), false) {
				t.Fatalf("cycle %d: materialised tables differ\ngot:   %+v\ngiven: %+v\nref:   %+v", cycle, gotSn, cur, want.Materialized(target))
			}
			if _, gotFull, _ := got.StorageStats(target); gotFull != want.fullEntries {
				t.Fatalf("cycle %d: %d full entries, reference %d", cycle, gotFull, want.fullEntries)
			}
		}
		if len(given) == 0 {
			return
		}

		// The logger rebuilt from its own export, from its records sent
		// through the WAL codec, and from a checkpoint.
		own, wal := New(), New()
		if ts, ok := got.ExportTarget(target); ok {
			own.ImportTarget(target, ts)
		}
		for idx := range given {
			rec, _ := got.Record(target, idx)
			r, err := decodePayload(encodePayload(walRecord{Seq: uint64(idx + 1), Kind: recDelta, Target: target, Rec: rec}))
			if err != nil {
				t.Fatalf("cycle %d: WAL round trip: %v", idx, err)
			}
			if err := wal.ApplyRecord(target, r.Rec, 0); err != nil {
				t.Fatalf("cycle %d: the decoded record does not apply: %v", idx, err)
			}
		}
		pay, err := decodeCheckpoint(appendCheckpoint(nil, uint64(len(given)), given[len(given)-1].At, got, nil))
		if err != nil {
			t.Fatalf("checkpoint round trip: %v", err)
		}
		ckpt := pay.Log
		loggers := []struct {
			name string
			l    *Logger
		}{{"the live logger", got}, {"its own export", own}, {"its WAL payloads", wal}, {"a checkpoint", ckpt}}
		for idx, cur := range given {
			ref := want.Reconstruct(target, idx)
			for _, c := range loggers {
				p, err1 := c.l.ReconstructPairs(target, idx)
				r, err2 := c.l.ReconstructRoutes(target, idx)
				sn := &tables.Snapshot{Target: target, At: cur.At, Pairs: p, Routes: r}
				if err1 != nil || err2 != nil || !sameTables(sn, cur, true) || !sameTables(sn, ref, false) {
					t.Fatalf("cycle %d reconstructed from %s differs (%v, %v)\ngot:   %+v\ngiven: %+v\nref:   %+v", idx, c.name, err1, err2, sn, cur, ref)
				}
			}
		}
		for _, c := range loggers[1:] {
			if sn, ok := c.l.Materialized(target); !ok || !sameTables(sn, given[len(given)-1], true) {
				t.Fatalf("logger rebuilt from %s materialises differently\ngot:  %+v\nwant: %+v", c.name, sn, given[len(given)-1])
			}
		}
		d1, f1, _ := got.StorageStats(target)
		for _, c := range []struct {
			name string
			l    *Logger
		}{{"its own export", own}, {"a checkpoint", ckpt}} {
			d2, f2, _ := c.l.StorageStats(target)
			if d1 != d2 || f1 != f2 || !reflect.DeepEqual(c.l.Gaps(target), got.Gaps(target)) {
				t.Fatalf("the logger rebuilt from %s changed the storage stats or gaps: %d/%d vs %d/%d", c.name, d2, f2, d1, f1)
			}
		}
	})
}

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint decoder,
// seeded with real checkpoints of one and of three targets. They decode
// or are ErrBadCheckpoint, never a panic, and what decodes encodes to
// bytes that decode and encode to themselves. A declared count larger
// than the bytes left is refused before anything is allocated for it.
func FuzzCheckpointDecode(f *testing.F) {
	// One target "x" declaring a million gaps and holding no bytes for
	// them.
	huge := seglog.AppendUvarint([]byte{1, 0, 1, 1, 'x', 0}, 1<<20)
	least := ^uint64(0)
	for run := 0; run < 4; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeCheckpoint(huge)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadCheckpoint) {
			f.Fatalf("a checkpoint declaring a million gaps in no bytes decoded with %v", err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4<<10 {
		f.Fatalf("refusing a checkpoint that declares a million gaps allocated %d bytes", least)
	}
	f.Add([]byte{})
	for n := 1; n <= 3; n += 2 {
		l := New()
		for i := 0; i < n; i++ {
			target := fmt.Sprint("r", i)
			for _, sn := range genHistory(rand.New(rand.NewSource(int64(i))), target, 6) {
				l.Append(sn)
			}
			l.MarkGap(target, sim.Epoch.Add(time.Hour), "refused")
		}
		f.Add(appendCheckpoint(nil, uint64(n), sim.Epoch, l, []byte("extra")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pay, err := decodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("decode failed with %v, not ErrBadCheckpoint", err)
			}
			return
		}
		once := appendCheckpoint(nil, pay.Seq, pay.At, pay.Log, pay.Extra)
		again, err := decodeCheckpoint(once)
		if err != nil {
			t.Fatalf("a decoded checkpoint re-encodes to bytes that do not decode: %v", err)
		}
		if twice := appendCheckpoint(nil, again.Seq, again.At, again.Log, again.Extra); !bytes.Equal(twice, once) {
			t.Fatal("a decoded checkpoint does not re-encode to the same bytes")
		}
	})
}
