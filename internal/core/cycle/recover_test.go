package cycle

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core/engine"
	"repro/internal/core/logger"
	"repro/internal/core/process"
	"repro/internal/netsim"
	"repro/internal/testfault"
)

// TestRecoverLockStepTwin is the crash-recovery counterpart of
// TestHandoffLockStepTwin. Core A archives to a store, checkpointing
// every fourth cycle, with the aggregate on and a route-leak episode
// open part of the way; core B runs a twin network in memory. After
// every cycle a copy of A's archive directory is recovered into a fresh
// core, which must then hold what A holds for every target: series,
// delta-log reconstructions and gaps, stability, health rows, and the
// anomaly ring byte for byte, IDs included. The last recovery then
// collects A's network on, and must keep holding what B holds.
func TestRecoverLockStepTwin(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	const cycles, every, after = 16, 4, 8
	opts := engine.Options{Aggregate: true}
	na, ta := twinNetwork(t)
	nb, tb := twinNetwork(t)
	a, b := twinCore(), twinCore()
	dir := t.TempDir()
	st, err := logger.OpenStore(dir, logger.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a.Store = st

	var c *Core
	for i := 1; i <= cycles; i++ {
		if i == 6 {
			for _, n := range []*netsim.Network{na, nb} {
				sc, err := netsim.LibraryScenario("route-leak", 1, 5)
				if err != nil {
					t.Fatal(err)
				}
				if err := n.ScheduleScenario(sc); err != nil {
					t.Fatal(err)
				}
			}
		}
		na.Step()
		a.Run(na.Now(), ta, opts)
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		if i%every == 0 {
			if err := a.WriteCheckpoint(na.Now()); err != nil {
				t.Fatal(err)
			}
		}
		nb.Step()
		b.Run(nb.Now(), tb, opts)

		c = recoverCopy(t, dir, filepath.Join(t.TempDir(), "crashed"))
		sameCore(t, a, c, i)
	}
	if len(a.Proc.Anomalies()) == 0 {
		t.Fatal("precondition: no anomaly was raised, so the ring comparison has no teeth")
	}
	for i := 1; i <= after; i++ {
		na.Step()
		c.Run(na.Now(), ta, opts)
		nb.Step()
		b.Run(nb.Now(), tb, opts)
		sameCore(t, b, c, cycles+i)
	}
}

// recoverCopy copies an archive directory as a crash leaves it and
// recovers the copy into a fresh core.
func recoverCopy(t *testing.T, dir, to string) *Core {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := logger.OpenStore(to, logger.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := twinCore()
	if _, err := c.Recover(st); err != nil {
		t.Fatal(err)
	}
	return c
}

// sameCore requires got to hold what want holds, target by target.
func sameCore(t *testing.T, want, got *Core, cycle int) {
	t.Helper()
	names := want.Log.Targets()
	if g := got.Log.Targets(); !reflect.DeepEqual(g, names) {
		t.Fatalf("cycle %d: targets %v, want %v", cycle, g, names)
	}
	for _, name := range names {
		for _, m := range process.AllMetrics {
			if w, g := want.Proc.Series(name, m), got.Proc.Series(name, m); !reflect.DeepEqual(w, g) {
				t.Fatalf("cycle %d: %s/%s series differs\ngot  %+v\nwant %+v", cycle, name, m, g, w)
			}
		}
		if w, g := want.Log.Cycles(name), got.Log.Cycles(name); w != g {
			t.Fatalf("cycle %d: %s logged %d cycles, want %d", cycle, name, g, w)
		}
		for j := 0; j < want.Log.Cycles(name); j++ {
			wp, _ := want.Log.ReconstructPairs(name, j)
			gp, perr := got.Log.ReconstructPairs(name, j)
			wr, _ := want.Log.ReconstructRoutes(name, j)
			gr, rerr := got.Log.ReconstructRoutes(name, j)
			if perr != nil || rerr != nil || !reflect.DeepEqual(wp, gp) || !reflect.DeepEqual(wr, gr) {
				t.Fatalf("cycle %d: %s's reconstruction of logged cycle %d differs (%v, %v)", cycle, name, j, perr, rerr)
			}
		}
		if w, g := want.Log.Gaps(name), got.Log.Gaps(name); !reflect.DeepEqual(w, g) {
			t.Fatalf("cycle %d: %s's gap markers differ", cycle, name)
		}
		ws, gs := want.RouteStability(name), got.RouteStability(name)
		if (ws == nil) != (gs == nil) || ws != nil && !reflect.DeepEqual(ws.ExportState(), gs.ExportState()) {
			t.Fatalf("cycle %d: %s's stability tracker differs", cycle, name)
		}
		// The WAL keeps a gap's reason, not the collector's wording of
		// it or whether a success needed retries: a replayed row has the
		// same counts and breaker, not the same last status and error.
		wh, wg := want.HealthRow(name)
		gh, gg := got.HealthRow(name)
		wh.LastStatus, wh.LastError, gh.LastStatus, gh.LastError = "", "", "", ""
		if wh != gh || wg != gg {
			t.Fatalf("cycle %d: %s's health row %+v (%d gaps), want %+v (%d gaps)", cycle, name, gh, gg, wh, wg)
		}
	}
	if w, g := want.Proc.Anomalies(), got.Proc.Anomalies(); !reflect.DeepEqual(w, g) {
		t.Fatalf("cycle %d: anomaly ring differs\ngot  %+v\nwant %+v", cycle, g, w)
	}
	if w, g := want.Proc.Rollup(), got.Proc.Rollup(); !reflect.DeepEqual(w, g) {
		t.Fatalf("cycle %d: rollup %+v, want %+v", cycle, g, w)
	}
}
