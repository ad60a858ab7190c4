package cycle

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core/collect"
	"repro/internal/core/engine"
	"repro/internal/core/process"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

// A target's stability tracker is derived from one input, the route
// delta of each logged record, when it is read. This drives a core's
// Log stage with generated cycles and, beside it, a reference tracker
// that Observes every whole table, and requires after every cycle that
// Core.RouteStability and the reference are equal, and that
// RouteStability is nil before the first logged table.
//
// data scripts the run. Each cycle reads one control byte — a gap cycle
// (a gap marker, no observation), an empty table, a move of the
// target's delta log into a fresh core the way a handoff moves it
// (Logger.ExportTarget, then ImportTarget; the run continues on the
// fresh core, so the run-length presence count crosses an import
// mid-run), or a table — and a table reads one byte per pool prefix:
// absent, unchanged, metric changed while up, uptime reset while up, or
// listed twice. Every entry's Since is the instant its prefix last rose
// or had its uptime reset, as tables.BuildSnapshot anchors it at
// At − uptime; ObserveDelta relies on it.
func FuzzStabilityFromRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 9, 9, 9, 9, 9, 9, 9, 9, 3, 0, 0, 0, 0, 0, 0, 0, 0, 3, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{3, 1, 2, 3, 4, 1, 1, 1, 1, 0, 2, 3, 1, 0, 3, 4, 1, 1, 1, 3, 0, 0, 1, 1, 2, 2, 3, 3, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{0, 2, 0, 1, 2, 0, 3, 1, 1, 1, 1, 1, 1, 1, 1})
	// 240 seeded cycles, so a plain `go test` already covers a long run.
	rng := sim.NewRNG(19)
	long := make([]byte, 240*(1+len(fuzzPool)))
	for i := range long {
		long[i] = byte(rng.Intn(256))
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		const target = "fixw"
		core := New(collect.DefaultPolicy(), nil, nil)
		var ref *process.RouteStability
		since := make(map[addr.Prefix]time.Time)
		at := sim.Epoch
		for cycle := 0; len(data) > 0; cycle++ {
			ctl := data[0] % 8
			data = data[1:]
			at = at.Add(30 * time.Minute)
			it := &engine.Item{Target: collect.Target{Name: target}, Res: collect.Result{Target: target}}
			if ctl == 0 {
				it.Res.Err = errors.New("scripted gap")
			} else {
				if ctl == 2 {
					ck := NewCheckpoint()
					if ts, ok := core.Log.ExportTarget(target); ok {
						ck.Logs[target] = ts
					}
					core = New(collect.DefaultPolicy(), nil, nil)
					core.ImportTarget(target, ck, at)
				}
				it.Snapshot = &tables.Snapshot{Target: target, At: at}
				if ctl == 1 {
					clear(since)
				} else {
					it.Snapshot.Routes, data = fuzzTable(data, since, at)
				}
				if ref == nil {
					ref = process.NewRouteStability()
				}
				ref.Observe(it.Snapshot.Routes, at)
			}
			core.stageLog(it, at)

			got := core.RouteStability(target)
			if ref == nil {
				if got != nil {
					t.Fatalf("cycle %d: nothing but gaps so far, yet a tracker", cycle)
				}
				continue
			}
			if got == nil {
				t.Fatalf("cycle %d: no tracker after a logged table", cycle)
			}
			if g, w := got.ExportState(), ref.ExportState(); !reflect.DeepEqual(g, w) {
				t.Fatalf("cycle %d: tracker folded from %d records differs from one that observed every table\ngot: %+v\nref: %+v", cycle, core.Log.Cycles(target), g, w)
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
		e := tables.RouteEntry{Prefix: p, Metric: 1, Since: up.UnixNano()}
		if op == 2 {
			e.Metric = 2 + int(b>>4)
		}
		routes = append(routes, e)
		if op == 5 {
			e.Metric++
			routes = append(routes, e)
		}
	}
	return routes, data
}
