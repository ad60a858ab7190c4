package shard_test

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core/collect"
	"repro/internal/core/process"
	"repro/internal/core/shard"
)

// outageDialer refuses to dial while *down is set: a scripted collection
// failure, so a control fleet can gap-mark exactly the cycle a killed
// worker tears.
type outageDialer struct {
	collect.Dialer
	down *bool
}

func (d outageDialer) Dial() (io.ReadWriteCloser, error) {
	if *d.down {
		return nil, errors.New("scripted outage")
	}
	return d.Dialer.Dial()
}

func routeChurn(t *testing.T, res *shard.CycleResult, name string) int {
	t.Helper()
	for _, st := range res.Stats {
		if st.Target == name {
			return st.RouteChurn
		}
	}
	t.Fatalf("%s has no stats in the cycle at %v", name, res.At)
	return 0
}

// TestTornCycleHandoffDerivesState: a worker killed mid-cycle has run
// the cycle in memory — its delta log, stability trackers and route sets
// have moved on — but its checkpoint must still end at the cycle before,
// and what the survivors derive from that checkpoint (the stability
// tracker from the log records, the route set from the latest snapshot)
// must equal what an unkilled fleet holds after failing to collect the
// same targets in the same cycle.
func TestTornCycleHandoffDerivesState(t *testing.T) {
	// Routes flap nearly every cycle: on a still network a lost route set
	// and a lost tracker both read as "no churn, no flaps" and pass.
	n, cn := newFlappingFleetNetwork(t, 0.9), newFlappingFleetNetwork(t, 0.9)
	s := newFleet(t, n, fleetConfig(2, 0))
	ctl := newFleet(t, cn, fleetConfig(1, 0))
	const before = 4
	for i := 0; i < before; i++ {
		step(t, n, s)
		step(t, cn, ctl)
	}
	victim, moved := victimShard(t, s)
	down := false
	for _, name := range moved {
		ctl.Register(collect.Target{
			Name:     name,
			Dialer:   outageDialer{collect.PipeDialer{Router: cn.Router(name)}, &down},
			Password: "pw",
			Prompt:   name + "> ",
			Timeout:  fleetTimeout,
		})
	}

	s.Kill(victim, shard.KillMidCycle)
	step(t, n, s)
	down = true
	step(t, cn, ctl)
	down = false

	ck := s.CheckpointOf(victim)
	for _, name := range moved {
		recs := ck.Logs[name].Records
		if len(recs) != before {
			t.Fatalf("%s: checkpoint holds %d records after the torn cycle, want the %d from before the kill", name, len(recs), before)
		}
		if last := recs[len(recs)-1].At; !last.Equal(ck.AsOf[name]) {
			t.Errorf("%s: checkpoint's last record is stamped %v, its AsOf %v", name, last, ck.AsOf[name])
		}
		// The fence is worth something only if the torn cycle did append.
		if live := s.CoreOf(victim).Log.Cycles(name); live != before+1 {
			t.Errorf("%s: the killed worker's live log holds %d cycles, want %d (the torn one included)", name, live, before+1)
		}
	}

	res, cres := step(t, n, s), step(t, cn, ctl)
	if res.Handoffs != 1 || len(res.Blind) != 0 {
		t.Fatalf("handoff cycle = %+v", res)
	}
	for _, name := range moved {
		owner := s.Status().Assignment[name]
		got := s.CoreOf(owner).Engine.Stability(name)
		want := ctl.CoreOf(0).Engine.Stability(name)
		if got == nil || want == nil {
			t.Fatalf("%s: stability tracker missing (handed off %v, control %v)", name, got != nil, want != nil)
		}
		if g, w := got.ExportState(), want.ExportState(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: stability derived at the handoff differs from the control fleet's\ngot  %+v\nwant %+v", name, g, w)
		}
		if g, w := routeChurn(t, res, name), routeChurn(t, cres, name); g != w || w == 0 {
			t.Errorf("%s: route churn in the first cycle after the handoff = %d, control fleet counts %d (and must count some)", name, g, w)
		}
		if g, w := s.TargetSeries(name, process.MetricRouteChurn), ctl.TargetSeries(name, process.MetricRouteChurn); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: route-churn series differs from the control fleet's\ngot  %+v\nwant %+v", name, g, w)
		}
	}
}

// TestHandoffGapMarkerWALErrorSurfaces: the blind window a handoff marks
// on its new owner is written to that worker's store directly, outside
// any Commit. When the store refuses it, the cycle must say so.
func TestHandoffGapMarkerWALErrorSurfaces(t *testing.T) {
	n := newFleetNetwork(t)
	cfg := fleetConfig(2, 0)
	cfg.DataDir = t.TempDir()
	s := newFleet(t, n, cfg)
	for i := 0; i < 3; i++ {
		if res := step(t, n, s); len(res.WALErrs) != 0 {
			t.Fatalf("clean cycle reported WAL errors: %v", res.WALErrs)
		}
	}
	victim, moved := victimShard(t, s)
	survivor := 1 - victim
	// Break the survivor's store: closed, it reopens a segment on the
	// next append, and its directory is gone.
	if err := s.CoreOf(survivor).Store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(cfg.DataDir, fmt.Sprintf("shard-%02d", survivor))); err != nil {
		t.Fatal(err)
	}

	s.Kill(victim, shard.KillBeforeCycle)
	step(t, n, s)
	res := step(t, n, s)
	if res.Handoffs != 1 {
		t.Fatalf("expected the handoff, got %+v", res)
	}
	for _, name := range moved {
		found := false
		for _, err := range res.WALErrs {
			if msg := err.Error(); strings.Contains(msg, "handoff gap marker for "+name) && strings.HasPrefix(msg, "shard ") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: its blind-cycle marker failed to persist and WALErrs does not say so: %v", name, res.WALErrs)
		}
		// The in-memory record still carries the gap.
		if sr := s.TargetSeries(name, process.MetricRoutes); sr == nil || sr.GapCount() != 1 {
			t.Errorf("%s: series gaps = %v, want the blind cycle", name, sr)
		}
	}
}

// TestFailbackDropsTheLenderLog: the shard that held targets through
// their owner's outage hands them back with their delta log, and keeps
// no copy of it — one more per handoff and failback, for the life of
// the process, until this was fixed.
func TestFailbackDropsTheLenderLog(t *testing.T) {
	n := newFleetNetwork(t)
	s := newFleet(t, n, fleetConfig(2, 0)) // restart backoff: two cycles
	for i := 0; i < 3; i++ {
		step(t, n, s)
	}
	victim, moved := victimShard(t, s)
	lender := 1 - victim
	s.Kill(victim, shard.KillBeforeCycle)
	step(t, n, s) // the crash cycle
	if res := step(t, n, s); res.Handoffs != 1 {
		t.Fatalf("expected the handoff, got %+v", res)
	}
	for _, name := range moved {
		if c := s.CoreOf(lender).Log.Cycles(name); c == 0 {
			t.Fatalf("%s: the lender logs no cycles while it owns the target", name)
		}
	}
	for i := 0; i < 2; i++ {
		step(t, n, s)
	}
	if st := s.Status(); st.Handoffs != 2 {
		t.Fatalf("handoff events = %d, want the handoff and the failback", st.Handoffs)
	}
	for _, name := range moved {
		if owner := s.Status().Assignment[name]; owner != victim {
			t.Fatalf("%s failed back to shard %d, want %d", name, owner, victim)
		}
		if c := s.CoreOf(lender).Log.Cycles(name); c != 0 {
			t.Errorf("%s: the shard that gave it back still logs %d cycles of it", name, c)
		}
		if c := s.CoreOf(victim).Log.Cycles(name); c == 0 {
			t.Errorf("%s: its owner lost the history in the failback", name)
		}
	}
}
