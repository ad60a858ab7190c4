package mantra_test

// Chaos proofs for the fault-tolerant shard supervisor: a shard worker
// is killed mid-cycle while a scripted incident is active, and the
// fleet must (a) hand the dead shard's targets off within the crash-
// detection bound, (b) still detect the incident within its contract
// plus one cycle of slack per blind cycle, (c) keep the blind window
// visible in /health (last-success timestamp and gap count), and (d)
// leave the per-shard WALs free of duplicate, torn or out-of-order
// frames — the union of frames across all shard directories covers
// every cycle of every target exactly once. A second proof pins the
// determinism contract under incidents: the merged fleet output and
// re-keyed anomaly log are byte-identical at 1, 4 and 16 shards.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/logger"
	"repro/internal/core/process"
	"repro/internal/core/shard"
	"repro/internal/netsim"
	"repro/internal/testfault"
	"repro/internal/topo"
	"repro/internal/workload"
)

// shardIncidentFleet builds the 3-target sharded fleet the library
// scenarios assume: dom00 transitioned to native sparse mode, scripted
// faults only, breaker kept out of the arithmetic.
func shardIncidentFleet(t testing.TB, mut func(*shard.Config)) (*netsim.Network, *shard.Supervisor) {
	t.Helper()
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 4
	inet := topo.BuildInternet(cfg)
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	ncfg := netsim.DefaultConfig()
	ncfg.FlapPerDomainPerCycle = 0
	ncfg.RestartPerCycle = 0
	n := netsim.New(inet, wl, ncfg)
	targets := []string{"fixw", "ucsb-r1", "dom00-gw"}
	if err := n.Track(targets...); err != nil {
		t.Fatal(err)
	}
	n.Step()
	n.Step()
	n.TransitionDomain("dom00")

	scfg := shard.Config{
		Shards:         3,
		RestartBackoff: time.Hour, // two 30-minute cycles
		Policy: collect.Policy{
			MaxAttempts:      3,
			BreakerThreshold: 1 << 20,
			BreakerCooldown:  90 * time.Minute,
			Sleep:            func(time.Duration) {},
		},
	}
	if mut != nil {
		mut(&scfg)
	}
	s, err := shard.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for _, name := range targets {
		n.Router(name).Password = "pw"
		s.Register(collect.Target{
			Name:     name,
			Dialer:   collect.PipeDialer{Router: n.Router(name)},
			Password: "pw",
			Prompt:   name + "> ",
			Timeout:  5 * time.Second,
		})
	}
	return n, s
}

func TestChaosShardKillDuringIncident(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	const duration = 6
	sc, err := netsim.LibraryScenario("sa-storm", 1, duration)
	if err != nil {
		t.Fatal(err)
	}
	primary := sc.Watch[0] // fixw
	dir := t.TempDir()
	n, s := shardIncidentFleet(t, func(c *shard.Config) { c.DataDir = dir })

	var stamps []time.Time
	runCycle := func() *shard.CycleResult {
		t.Helper()
		n.Step()
		res, err := s.RunCycle(n.Now())
		if err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, res.At)
		return res
	}
	episode := func() *process.Anomaly {
		for _, a := range s.FleetAnomalies() {
			if a.Kind == sc.DetectKind && a.Target == primary {
				return &a
			}
		}
		return nil
	}
	healthOf := func(name string) shard.TargetHealthView {
		t.Helper()
		for _, row := range s.FleetHealth() {
			if row.Target == name {
				return row
			}
		}
		t.Fatalf("%s missing from fleet health", name)
		return shard.TargetHealthView{}
	}
	gapCount := func() int {
		if sr := s.TargetSeries(primary, process.MetricRoutes); sr != nil {
			return sr.GapCount()
		}
		return 0
	}

	const warmup = 10
	for i := 0; i < warmup; i++ {
		if res := runCycle(); len(res.Blind) != 0 || len(res.Degraded) != 0 {
			t.Fatalf("warmup cycle degraded: %+v", res)
		}
	}
	if a := episode(); a != nil {
		t.Fatalf("anomaly open before the incident: %+v", a)
	}
	preKill := n.Now()
	initialAssign := s.Status().Assignment
	victim := initialAssign[primary]
	var victimTargets []string
	for name, sh := range initialAssign {
		if sh == victim {
			victimTargets = append(victimTargets, name)
		}
	}

	if err := n.ScheduleScenario(sc); err != nil {
		t.Fatal(err)
	}
	// The incident becomes visible at offset 1 — and that is exactly
	// the cycle the primary's shard is killed in, after collecting but
	// before persisting anything. The fleet must not lose the detection.
	s.Kill(victim, shard.KillMidCycle)

	startGaps := gapCount()
	res := runCycle() // offset 1: torn cycle
	if res.Handoffs != 0 || len(res.Blind) != len(victimTargets) {
		t.Fatalf("torn cycle = %+v, want %v blind and no handoff yet", res, victimTargets)
	}

	res = runCycle() // offset 2: crash detected at the boundary, handoff
	if res.Handoffs != 1 || len(res.Blind) != 0 {
		t.Fatalf("handoff cycle = %+v, want the handoff and full coverage", res)
	}
	st := s.Status()
	if st.Assignment[primary] == victim || st.Shards[victim].Alive {
		t.Fatalf("%s still on the dead shard: %+v", primary, st)
	}
	// Blind-window visibility (the /health contract): collection resumed
	// on the new owner in this very cycle, so last-success is the
	// handoff cycle — and the torn cycle in between is an explicit gap,
	// never a success. The torn cycle's uncommitted collection must not
	// have leaked into the ledger.
	h := healthOf(primary)
	tornAt := stamps[len(stamps)-2]
	if !h.LastSuccess.Equal(n.Now()) || h.LastSuccess.Equal(tornAt) {
		t.Errorf("%s last success = %v, want the handoff cycle %v (pre-kill %v, torn %v)",
			primary, h.LastSuccess, n.Now(), preKill, tornAt)
	}
	if h.GapCount != 1 {
		t.Errorf("%s gap count after handoff = %d, want 1", primary, h.GapCount)
	}
	sr := s.TargetSeries(primary, process.MetricRoutes)
	if len(sr.Gaps) != 1 || !sr.Gaps[0].Equal(tornAt) {
		t.Errorf("%s gap markers = %v, want exactly the torn cycle %v", primary, sr.Gaps, tornAt)
	}

	detected := 0
	for off := 3; off <= duration; off++ {
		runCycle()
		if a := episode(); a != nil {
			if detected == 0 {
				detected = off
			}
			if a.Resolved {
				t.Fatalf("offset %d: episode resolved mid-incident: %+v", off, a)
			}
		}
	}
	if a := episode(); a != nil && detected == 0 {
		detected = duration
	}
	if detected == 0 {
		t.Fatalf("%s at %s lost across the shard handoff", sc.DetectKind, primary)
	}
	if slack := gapCount() - startGaps; detected > sc.MaxDetectCycles+slack+1 {
		// +1: the detection window opened on the torn cycle itself,
		// whose collection died with the worker.
		t.Errorf("detection latency = %d cycles, bound %d (+%d gap slack +1 torn)",
			detected, sc.MaxDetectCycles, slack)
	}

	// The victim restarted after its backoff and stole its ranges back.
	st = s.Status()
	if row := st.Shards[victim]; !row.Alive || row.Generation != 1 || row.Restarts != 1 {
		t.Fatalf("victim shard after backoff = %+v", row)
	}
	for name, sh := range initialAssign {
		if st.Assignment[name] != sh {
			t.Errorf("failback did not restore %s to shard %d", name, sh)
		}
	}

	// Recovery: the episode resolves within contract once the storm ends.
	endGaps := gapCount()
	resolvedIn := 0
	for off := 1; off <= sc.MaxResolveCycles+8; off++ {
		runCycle()
		a := episode()
		if a == nil {
			t.Fatal("episode vanished from the fleet anomaly log")
		}
		if a.Resolved {
			resolvedIn = off
			break
		}
	}
	if resolvedIn == 0 {
		t.Fatalf("%s at %s never resolved", sc.DetectKind, primary)
	}
	if slack := gapCount() - endGaps; resolvedIn > sc.MaxResolveCycles+slack {
		t.Errorf("resolution latency = %d cycles, bound %d (+%d gap slack)",
			resolvedIn, sc.MaxResolveCycles, slack)
	}
	count := 0
	for _, a := range s.FleetAnomalies() {
		if a.Kind == sc.DetectKind && a.Target == primary {
			count++
		}
	}
	if count != 1 {
		t.Errorf("episodes of %s at %s = %d, want exactly 1 across the handoff", sc.DetectKind, primary, count)
	}

	// WAL integrity across the kill, handoff and failback: reopen every
	// shard directory and replay. Per target the union of frames across
	// all directories must cover every cycle since registration exactly
	// once — data or explicit gap, never duplicated, never out of order,
	// and nothing at all from the torn cycle's uncommitted work.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	type frame struct {
		dir int
		gap bool
	}
	seen := map[string]map[time.Time]frame{}
	lastAt := map[[2]interface{}]time.Time{}
	for i := 0; i < 3; i++ {
		st, err := logger.OpenStore(filepath.Join(dir, fmt.Sprintf("shard-%02d", i)), logger.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ra := st.Recover()
		for _, ev := range ra.Events {
			key := [2]interface{}{i, ev.Target}
			if !ev.At.After(lastAt[key]) {
				t.Errorf("shard %d: %s frame at %v not after previous %v", i, ev.Target, ev.At, lastAt[key])
			}
			lastAt[key] = ev.At
			if seen[ev.Target] == nil {
				seen[ev.Target] = map[time.Time]frame{}
			}
			if prev, dup := seen[ev.Target][ev.At]; dup {
				t.Errorf("%s cycle %v recorded twice: shard %d and shard %d (gap=%v/%v)",
					ev.Target, ev.At, prev.dir, i, prev.gap, ev.Gap)
			}
			seen[ev.Target][ev.At] = frame{dir: i, gap: ev.Gap}
		}
		st.Close()
	}
	for _, name := range []string{"fixw", "ucsb-r1", "dom00-gw"} {
		for _, at := range stamps {
			if _, ok := seen[name][at]; !ok {
				t.Errorf("%s cycle %v missing from every shard WAL", name, at)
			}
		}
		if extra := len(seen[name]) - len(stamps); extra != 0 {
			t.Errorf("%s has %d WAL frames beyond the %d cycles", name, extra, len(stamps))
		}
	}
}

// TestChaosShardCountFleetIdentity pins the fleet determinism contract
// under an active incident: the same scripted timeline at 1, 4 and 16
// shards must publish byte-identical merged snapshots and anomaly logs.
func TestChaosShardCountFleetIdentity(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	run := func(shards int) (merged, anoms []byte, detected int) {
		sc, err := netsim.LibraryScenario("unicast-injection", 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		n, s := shardIncidentFleet(t, func(c *shard.Config) { c.Shards = shards })
		cycle := func() {
			t.Helper()
			n.Step()
			if _, err := s.RunCycle(n.Now()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		if err := n.ScheduleScenario(sc); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			cycle()
		}
		if merged, err = json.Marshal(s.Merged()); err != nil {
			t.Fatal(err)
		}
		if anoms, err = json.Marshal(s.FleetAnomalies()); err != nil {
			t.Fatal(err)
		}
		return merged, anoms, len(s.FleetAnomalies())
	}

	baseMerged, baseAnoms, detected := run(1)
	if detected == 0 {
		t.Fatal("scenario produced no anomalies; the identity proof would be vacuous")
	}
	for _, shards := range []int{4, 16} {
		merged, anoms, _ := run(shards)
		if string(merged) != string(baseMerged) {
			t.Errorf("%d shards: merged fleet snapshot diverged from 1 shard", shards)
		}
		if string(anoms) != string(baseAnoms) {
			t.Errorf("%d shards: fleet anomaly log diverged from 1 shard", shards)
		}
	}
}
