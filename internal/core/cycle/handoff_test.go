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

// A target's stability tracker has one input, the route delta of each
// logged record: the Log stage hands it over live, the handoff import
// replays it from the exported records. This drives a core's Log stage
// with generated cycles and, beside it, a reference tracker that
// Observes every whole table, and requires after every cycle that the
// engine's tracker, the one stabilityFromRecords rebuilds from the
// logger's export, and the reference are equal.
//
// data scripts the run. Each cycle reads one control byte — a gap cycle
// (a gap marker, no observation), an empty table, a round trip of both
// trackers through their archive form (StabilityFromState of an export,
// so the run-length presence count crosses that path mid-run), or a
// table — and a table reads one byte per pool prefix: absent,
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
				if ctl == 2 && ref != nil {
					ref = process.StabilityFromState(ref.ExportState())
					core.Engine.SetStability(target, process.StabilityFromState(core.Engine.Stability(target).ExportState()))
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

			live := core.Engine.Stability(target)
			ts, _ := core.Log.ExportTarget(target)
			derived := stabilityFromRecords(ts.Records)
			if ref == nil {
				if live != nil || derived != nil {
					t.Fatalf("cycle %d: nothing but gaps so far, yet live tracker %v, derived %v", cycle, live != nil, derived != nil)
				}
				continue
			}
			if live == nil || derived == nil {
				t.Fatalf("cycle %d: live tracker %v, derived %v after a logged table", cycle, live != nil, derived != nil)
			}
			want := ref.ExportState()
			if got := live.ExportState(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: the Log stage's tracker differs from one that observed every table\nlive: %+v\nref:  %+v", cycle, got, want)
			}
			if got := derived.ExportState(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: tracker replayed from %d records differs from one that observed every table\nderived: %+v\nref:     %+v", cycle, len(ts.Records), got, want)
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
