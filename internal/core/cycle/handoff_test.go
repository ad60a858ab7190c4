package cycle

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core/logger"
	"repro/internal/core/process"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

// The handoff carries no stability tracker: the importer rebuilds it
// from the delta-log records. This drives one logger and one live
// tracker with the same generated cycles and requires, after every
// cycle, that the tracker replayed from the logger's exported records
// equals the live one.
//
// data scripts the run. Each cycle reads one control byte — a gap cycle
// (a gap marker, no observation), an empty table, a round trip of the
// live tracker through its archive form (StabilityFromState of an
// export, so the run-length presence count crosses that path mid-run),
// or a table — and a table reads one byte per pool prefix: absent,
// unchanged, metric changed while up, uptime reset while up, or listed
// twice. Every entry keeps Since == At − Uptime, as tables.BuildSnapshot
// does; ObserveDelta relies on it.
func FuzzStabilityFromRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 9, 9, 9, 9, 9, 9, 9, 9, 3, 0, 0, 0, 0, 0, 0, 0, 0, 3, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{3, 1, 2, 3, 4, 1, 1, 1, 1, 0, 2, 3, 1, 0, 3, 4, 1, 1, 1, 3, 0, 0, 1, 1, 2, 2, 3, 3, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1})
	// 240 seeded cycles, so a plain `go test` already covers a long run.
	rng := sim.NewRNG(19)
	long := make([]byte, 240*(1+len(fuzzPool)))
	for i := range long {
		long[i] = byte(rng.Intn(256))
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		const target = "fixw"
		log := logger.New()
		var live *process.RouteStability
		since := make(map[addr.Prefix]time.Time)
		at := sim.Epoch
		for cycle := 0; len(data) > 0; cycle++ {
			ctl := data[0] % 8
			data = data[1:]
			at = at.Add(30 * time.Minute)
			if ctl == 0 {
				log.MarkGap(target, at, "scripted gap")
			} else {
				if ctl == 2 && live != nil {
					live = process.StabilityFromState(live.ExportState())
				}
				sn := &tables.Snapshot{Target: target, At: at}
				if ctl == 1 {
					clear(since)
				} else {
					sn.Routes, data = fuzzTable(data, since, at)
				}
				if live == nil {
					live = process.NewRouteStability()
				}
				live.Observe(sn.Routes, sn.At)
				log.Append(sn)
			}

			ts, _ := log.ExportTarget(target)
			derived := stabilityFromRecords(ts.Records)
			if live == nil || derived == nil {
				if live != nil || derived != nil {
					t.Fatalf("cycle %d: live tracker %v, derived %v: one exists without the other", cycle, live != nil, derived != nil)
				}
				continue
			}
			if got, want := derived.ExportState(), live.ExportState(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: tracker replayed from %d records differs from the live one\nderived: %+v\nlive:    %+v", cycle, len(ts.Records), got, want)
			}
		}
	})
}

// fuzzPool is the prefix pool the scripted tables draw from.
var fuzzPool = func() []addr.Prefix {
	out := make([]addr.Prefix, 8)
	for i := range out {
		out[i] = addr.PrefixFrom(addr.V4(10, byte(i), 0, 0), 16)
	}
	return out
}()

// fuzzTable reads one byte per pool prefix off data and builds the
// cycle's route table; since holds when each currently-listed prefix
// came up and is updated to match.
func fuzzTable(data []byte, since map[addr.Prefix]time.Time, at time.Time) (tables.RouteTable, []byte) {
	var routes tables.RouteTable
	for _, p := range fuzzPool {
		if len(data) == 0 {
			delete(since, p)
			continue
		}
		b := data[0]
		data = data[1:]
		op := b % 6
		if op == 0 {
			delete(since, p)
			continue
		}
		up, was := since[p]
		if !was || op == 3 {
			// A rise, or an uptime reset while up: a fresh Since.
			up = at.Add(-time.Duration(b>>3) * time.Minute)
			since[p] = up
		}
		e := tables.RouteEntry{Prefix: p, Metric: 1, Uptime: at.Sub(up)}
		if op == 2 {
			e.Metric = 2 + int(b>>4)
		}
		e.Since = at.Add(-e.Uptime)
		routes = append(routes, e)
		if op == 5 {
			e.Metric++
			routes = append(routes, e)
		}
	}
	return routes, data
}
