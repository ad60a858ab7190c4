package cycle

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/engine"
	"repro/internal/core/process"
	"repro/internal/netsim"
	"repro/internal/router"
	"repro/internal/testfault"
	"repro/internal/topo"
	"repro/internal/workload"
)

// twinTargets are the library scenarios' monitoring set; the first is
// the one handed off, behind a session-fault layer.
var twinTargets = []string{"fixw", "ucsb-r1", "dom00-gw"}

// twinNetwork builds the scenario network from one seed, so two calls
// evolve alike, and returns it with collection targets for it. The
// handed-off target's sessions draw refusals, truncations, garbling and
// drops from a fault stream forked at the same point in both twins.
func twinNetwork(t testing.TB) (*netsim.Network, []collect.Target) {
	t.Helper()
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 4
	inet := topo.BuildInternet(cfg)
	ncfg := netsim.DefaultConfig()
	ncfg.FlapPerDomainPerCycle = 0.5
	ncfg.RestartPerCycle = 0
	n := netsim.New(inet, workload.New(workload.DefaultConfig(), inet.Topo), ncfg)
	if err := n.Track(twinTargets...); err != nil {
		t.Fatal(err)
	}
	n.Step()
	n.Step()
	n.TransitionDomain("dom00")
	var targets []collect.Target
	for i, name := range twinTargets {
		n.Router(name).Password = "pw"
		var d collect.Dialer = collect.PipeDialer{Router: n.Router(name)}
		if i == 0 {
			d = collect.PipeDialer{Router: n.FaultyRouter(name, router.FaultProfile{RefuseConn: 0.08, Truncate: 0.08, Garble: 0.08, Drop: 0.08})}
		}
		targets = append(targets, collect.Target{Name: name, Dialer: d, Password: "pw", Prompt: name + "> ", Timeout: 5 * time.Second})
	}
	return n, targets
}

func twinCore() *Core {
	return New(collect.Policy{
		MaxAttempts:      1,
		BreakerThreshold: 3,
		BreakerCooldown:  90 * time.Minute,
		Sleep:            func(time.Duration) {},
	}, collect.StandardCommands, nil)
}

// stepTwin advances a network one cycle and runs a core over targets.
func stepTwin(n *netsim.Network, c *Core, targets []collect.Target) {
	n.Step()
	c.Run(n.Now(), targets, engine.Options{})
}

// anomaliesOf returns target's anomalies with the ring IDs cleared: an
// import re-keys them, so they are the one thing a handoff may change.
func anomaliesOf(p *process.Processor, target string) []process.Anomaly {
	var out []process.Anomaly
	for _, a := range p.Anomalies() {
		if a.Target == target {
			a.ID = 0
			out = append(out, a)
		}
	}
	return out
}

// exportSansIDs is c's export of one target with the processor state's
// anomaly IDs cleared, for the same reason.
func exportSansIDs(c *Core, at time.Time, t collect.Target) *Checkpoint {
	ck := c.Export(at, []collect.Target{t})
	if st := ck.Proc[t.Name]; st != nil {
		cp := *st
		cp.Anomalies = append([]process.Anomaly(nil), st.Anomalies...)
		for i := range cp.Anomalies {
			cp.Anomalies[i].ID = 0
		}
		ck.Proc[t.Name] = &cp
	}
	return ck
}

// TestHandoffLockStepTwin is the handoff path's counterpart of the
// archive's crash-recovery twin. Cores A and B run twin networks in lock
// step; at cycle k target T moves from A to a fresh core C through
// Export → ImportTarget → RemoveTarget. At that instant C must export
// what A exported, component by component, and A must export nothing
// for T (its anomaly ring keeps the history, by design). From then on C
// collects T from A's network and must hold, every cycle, what B holds
// for T: series, delta-log reconstructions, stability, health row and
// anomalies. A route-leak episode is open at fixw across the transfer
// and resolves after it.
func TestHandoffLockStepTwin(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	const k, after = 12, 10
	na, ta := twinNetwork(t)
	nb, tb := twinNetwork(t)
	a, b := twinCore(), twinCore()
	for i := 0; i < k; i++ {
		if i == 9 {
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
		stepTwin(na, a, ta)
		stepTwin(nb, b, tb)
	}

	moved, at := ta[0], na.Now()
	name := moved.Name
	if h, _ := a.HealthRow(name); h.Breaker != collect.BreakerClosed || h.TotalFailures == 0 {
		t.Fatalf("precondition: %s's breaker %v after %d failures; want it closed, and faults so far", name, h.Breaker, h.TotalFailures)
	}
	want := exportSansIDs(a, at, moved)
	wantStab := a.Engine.Stability(name).ExportState()

	c := twinCore()
	c.ImportTarget(name, a.Export(at, []collect.Target{moved}), at)
	a.RemoveTarget(name)

	if got := exportSansIDs(c, at, moved); !reflect.DeepEqual(got, want) {
		for _, d := range []struct {
			comp string
			eq   bool
		}{
			{"Proc", reflect.DeepEqual(got.Proc, want.Proc)},
			{"Logs", reflect.DeepEqual(got.Logs, want.Logs)},
			{"Health", reflect.DeepEqual(got.Health, want.Health)},
			{"Latest", reflect.DeepEqual(got.Latest, want.Latest)},
		} {
			if !d.eq {
				t.Errorf("%s: the importer's export differs from the exporter's in %s", name, d.comp)
			}
		}
		t.FailNow()
	}
	if rs := c.Engine.Stability(name); rs == nil || !reflect.DeepEqual(rs.ExportState(), wantStab) {
		t.Fatalf("%s: the importer's stability tracker differs from the exporter's", name)
	}

	for i := 0; i <= after; i++ {
		if i > 0 {
			stepTwin(na, a, ta[1:])
			c.Run(na.Now(), ta[:1], engine.Options{})
			stepTwin(nb, b, tb)
		}
		now := nb.Now()
		if left := a.Export(now, []collect.Target{moved}); len(left.Proc)+len(left.Logs)+len(left.Health)+len(left.Latest) != 0 || a.Engine.Stability(name) != nil {
			t.Fatalf("cycle k+%d: the exporter still holds %s's state: %+v", i, name, left)
		}
		for _, m := range process.AllMetrics {
			if w, g := b.Proc.Series(name, m), c.Proc.Series(name, m); !reflect.DeepEqual(w, g) {
				t.Fatalf("cycle k+%d: %s/%s series differs from the twin's", i, name, m)
			}
		}
		if w, g := b.Log.Cycles(name), c.Log.Cycles(name); w != g {
			t.Fatalf("cycle k+%d: %s logged %d cycles, the twin %d", i, name, g, w)
		}
		for j := 0; j < b.Log.Cycles(name); j++ {
			wp, _ := b.Log.ReconstructPairs(name, j)
			gp, gerr := c.Log.ReconstructPairs(name, j)
			wr, _ := b.Log.ReconstructRoutes(name, j)
			gr, rerr := c.Log.ReconstructRoutes(name, j)
			if gerr != nil || rerr != nil || !reflect.DeepEqual(wp, gp) || !reflect.DeepEqual(wr, gr) {
				t.Fatalf("cycle k+%d: %s's reconstruction of logged cycle %d differs from the twin's (%v, %v)", i, name, j, gerr, rerr)
			}
		}
		if w, g := b.Engine.Stability(name).ExportState(), c.Engine.Stability(name).ExportState(); !reflect.DeepEqual(w, g) {
			t.Fatalf("cycle k+%d: %s's stability differs from the twin's", i, name)
		}
		wh, wg := b.HealthRow(name)
		gh, gg := c.HealthRow(name)
		if wh != gh || wg != gg {
			t.Fatalf("cycle k+%d: %s's health row %+v (%d gaps), the twin's %+v (%d gaps)", i, name, gh, gg, wh, wg)
		}
		if w, g := anomaliesOf(b.Proc, name), anomaliesOf(c.Proc, name); !reflect.DeepEqual(w, g) {
			t.Fatalf("cycle k+%d: %s's anomalies differ from the twin's\ngot  %+v\nwant %+v", i, name, g, w)
		}
	}
	// The precondition that gives the anomaly comparison teeth, checked
	// last because it needs the episode's end.
	resolved := 0
	for _, an := range anomaliesOf(c.Proc, name) {
		if an.Resolved && an.At.Before(at) && an.ResolvedAt.After(at) {
			resolved++
		}
	}
	if resolved == 0 {
		t.Errorf("no episode was open across the transfer and resolved after it: %+v", anomaliesOf(c.Proc, name))
	}
}
