package shard_test

import (
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/engine"
	"repro/internal/core/output"
	"repro/internal/core/process"
	"repro/internal/core/shard"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/workload"
)

const fleetTimeout = 5 * time.Second

var fleetTargets = []string{"fixw", "ucsb-r1", "dom00-gw", "dom01-gw", "dom02-gw", "dom03-gw"}

// newFleetNetwork builds the deterministic 4-domain internetwork every
// supervisor test runs against. Random background faults are disabled:
// these tests reason about scripted shard faults, not collection luck.
func newFleetNetwork(t testing.TB) *netsim.Network { return newFlappingFleetNetwork(t, 0) }

// newFlappingFleetNetwork is newFleetNetwork with each DVMRP domain
// flapping a route with probability flap per cycle (seeded, so two
// networks built alike flap alike), for tests that need route tables
// which move.
func newFlappingFleetNetwork(t testing.TB, flap float64) *netsim.Network {
	t.Helper()
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 4
	inet := topo.BuildInternet(cfg)
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	ncfg := netsim.DefaultConfig()
	ncfg.FlapPerDomainPerCycle = flap
	ncfg.RestartPerCycle = 0
	n := netsim.New(inet, wl, ncfg)
	if err := n.Track(fleetTargets...); err != nil {
		t.Fatal(err)
	}
	return n
}

func fleetConfig(shards int, heartbeat time.Duration) shard.Config {
	return shard.Config{
		Shards:           shards,
		HeartbeatTimeout: heartbeat,
		RestartBackoff:   time.Hour,
		Policy: collect.Policy{
			MaxAttempts:      2,
			BreakerThreshold: 1 << 20, // tests reason in gaps, not breaker skips
			BreakerCooldown:  90 * time.Minute,
			Sleep:            func(time.Duration) {},
		},
	}
}

func newFleet(t testing.TB, n *netsim.Network, cfg shard.Config) *shard.Supervisor {
	t.Helper()
	s, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for _, name := range fleetTargets {
		n.Router(name).Password = "pw"
		s.Register(collect.Target{
			Name:     name,
			Dialer:   collect.PipeDialer{Router: n.Router(name)},
			Password: "pw",
			Prompt:   name + "> ",
			Timeout:  fleetTimeout,
		})
	}
	return s
}

func step(t testing.TB, n *netsim.Network, s *shard.Supervisor) *shard.CycleResult {
	t.Helper()
	n.Step()
	res, err := s.RunCycle(n.Now())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// victimShard picks a shard that owns at least one target, preferring
// one that does not own them all (so a survivor has prior state too).
func victimShard(t testing.TB, s *shard.Supervisor) (int, []string) {
	t.Helper()
	st := s.Status()
	best := -1
	for _, row := range st.Shards {
		if len(row.Targets) == 0 || !row.Alive {
			continue
		}
		if best == -1 || len(st.Shards[best].Targets) > len(row.Targets) {
			best = row.Index
		}
	}
	if best == -1 {
		t.Fatal("no shard owns any targets")
	}
	return best, st.Shards[best].Targets
}

func TestSupervisorBasicFleetCycle(t *testing.T) {
	n := newFleetNetwork(t)
	s := newFleet(t, n, fleetConfig(4, 0))

	var last *shard.CycleResult
	for i := 0; i < 5; i++ {
		last = step(t, n, s)
	}
	if len(last.Blind) != 0 || len(last.Degraded) != 0 {
		t.Fatalf("clean fleet cycle: blind=%v degraded=%v", last.Blind, last.Degraded)
	}
	if len(last.Stats) != len(fleetTargets) || last.Stats[0].Target != "fixw" {
		t.Fatalf("stats not in registration order: %+v", last.Stats)
	}
	if last.FleetStats == nil || last.FleetStats.Routes == 0 {
		t.Fatalf("fleet stats = %+v", last.FleetStats)
	}

	if m := s.Merged(); m == nil || m.Target != shard.FleetTarget || len(m.Routes) == 0 {
		t.Fatalf("merged fleet snapshot = %+v", m)
	}
	if got := s.FleetProc().Series(shard.FleetTarget, process.MetricRoutes).Len(); got != 5 {
		t.Errorf("fleet series length = %d, want 5", got)
	}

	st := s.Status()
	if st.Cycle != 5 || st.Handoffs != 0 || len(st.Assignment) != len(fleetTargets) {
		t.Errorf("status = %+v", st)
	}
	owned := 0
	for _, row := range st.Shards {
		if !row.Alive || row.Generation != 0 {
			t.Errorf("shard %d not alive at gen 0: %+v", row.Index, row)
		}
		if !row.LastBeat.Equal(n.Now()) {
			t.Errorf("shard %d heartbeat = %v, want %v", row.Index, row.LastBeat, n.Now())
		}
		owned += len(row.Targets)
	}
	if owned != len(fleetTargets) {
		t.Errorf("shards own %d targets, want %d", owned, len(fleetTargets))
	}

	for i, row := range s.FleetHealth() {
		if row.Target != fleetTargets[i] || row.Shard < 0 || row.GapCount != 0 {
			t.Errorf("health row %d = %+v", i, row)
		}
		if row.LastSuccess.IsZero() {
			t.Errorf("health row %s has no last-success stamp", row.Target)
		}
	}
}

// TestSupervisorShardCountInvariance is the determinism contract: the
// same fleet over the same simulated timeline must publish byte-identical
// merged output, anomaly log and health (modulo the owning-shard index)
// at 1, 4 and 16 shards.
func TestSupervisorShardCountInvariance(t *testing.T) {
	type capture struct {
		merged, anoms, health []byte
	}
	run := func(shards int) capture {
		n := newFleetNetwork(t)
		s := newFleet(t, n, fleetConfig(shards, 0))
		for i := 0; i < 6; i++ {
			if res := step(t, n, s); len(res.Blind) != 0 {
				t.Fatalf("%d shards: blind targets %v", shards, res.Blind)
			}
		}
		var c capture
		var err error
		if c.merged, err = json.Marshal(s.Merged()); err != nil {
			t.Fatal(err)
		}
		if c.anoms, err = json.Marshal(s.FleetAnomalies()); err != nil {
			t.Fatal(err)
		}
		health := s.FleetHealth()
		for i := range health {
			health[i].Shard = 0 // the one field allowed to differ
		}
		if c.health, err = json.Marshal(health); err != nil {
			t.Fatal(err)
		}
		return c
	}

	base := run(1)
	for _, shards := range []int{4, 16} {
		got := run(shards)
		if string(got.merged) != string(base.merged) {
			t.Errorf("%d shards: merged fleet snapshot diverged from 1 shard", shards)
		}
		if string(got.anoms) != string(base.anoms) {
			t.Errorf("%d shards: fleet anomaly log diverged from 1 shard", shards)
		}
		if string(got.health) != string(base.health) {
			t.Errorf("%d shards: fleet health diverged from 1 shard", shards)
		}
	}
}

func TestSupervisorKillMidCycleHandoff(t *testing.T) {
	n := newFleetNetwork(t)
	s := newFleet(t, n, fleetConfig(2, 0)) // crash-only detection
	for i := 0; i < 4; i++ {
		step(t, n, s)
	}
	victim, moved := victimShard(t, s)
	s.Kill(victim, shard.KillMidCycle)

	// The killed cycle: the victim crashes after collecting but before
	// persisting or acknowledging, so its targets go blind this cycle.
	res := step(t, n, s)
	if res.Handoffs != 0 {
		t.Fatalf("handoff ran in the crash cycle itself: %+v", res)
	}
	if len(res.Blind) != len(moved) {
		t.Fatalf("crash cycle blind = %v, want %v", res.Blind, moved)
	}

	// Next boundary: reap, handoff, and the survivors cover everything.
	res = step(t, n, s)
	if res.Handoffs != 1 || len(res.Blind) != 0 || len(res.Stats) != len(fleetTargets) {
		t.Fatalf("post-handoff cycle = %+v", res)
	}

	st := s.Status()
	if st.Handoffs != 1 || st.TargetsMoved != len(moved) {
		t.Errorf("status after handoff = %+v", st)
	}
	if st.Shards[victim].Alive || len(st.Shards[victim].Targets) != 0 {
		t.Errorf("victim shard row = %+v", st.Shards[victim])
	}
	for _, name := range moved {
		if sh := st.Assignment[name]; sh == victim {
			t.Errorf("%s still assigned to dead shard %d", name, victim)
		}
	}

	// Continuity: the moved targets carry their full history — every
	// cycle is either a point or an explicit gap, and exactly the one
	// blind cycle is a gap.
	for _, name := range moved {
		sr := s.TargetSeries(name, process.MetricRoutes)
		if sr == nil {
			t.Fatalf("%s has no series after handoff", name)
		}
		if sr.Len()+sr.GapCount() != 6 || sr.GapCount() != 1 {
			t.Errorf("%s series after handoff: %d points + %d gaps, want 5+1",
				name, sr.Len(), sr.GapCount())
		}
	}
	for _, row := range s.FleetHealth() {
		wasMoved := false
		for _, name := range moved {
			if row.Target == name {
				wasMoved = true
			}
		}
		if wasMoved && row.GapCount != 1 {
			t.Errorf("moved target %s gap count = %d, want 1", row.Target, row.GapCount)
		}
		if !wasMoved && row.GapCount != 0 {
			t.Errorf("unmoved target %s gap count = %d, want 0", row.Target, row.GapCount)
		}
	}
}

func TestSupervisorWedgeCaughtByHeartbeat(t *testing.T) {
	n := newFleetNetwork(t)
	// 45-minute timeout over 30-minute cycles: one wedged cycle is
	// within tolerance, the second is stale.
	s := newFleet(t, n, fleetConfig(2, 45*time.Minute))
	for i := 0; i < 3; i++ {
		step(t, n, s)
	}
	victim, moved := victimShard(t, s)
	s.Kill(victim, shard.Wedge)

	res := step(t, n, s)
	if res.Handoffs != 0 || len(res.Blind) != len(moved) {
		t.Fatalf("first wedged cycle = %+v, want blind %v and no handoff", res, moved)
	}
	res = step(t, n, s)
	if res.Handoffs != 1 || len(res.Blind) != 0 {
		t.Fatalf("stale-heartbeat cycle = %+v, want the handoff", res)
	}
	st := s.Status()
	if st.Shards[victim].Alive {
		t.Error("wedged shard still marked alive after heartbeat expiry")
	}
	// One blind cycle for the moved targets — the wedged one. The
	// detection cycle itself already collects them: handoff runs at the
	// boundary before dispatch.
	for _, name := range moved {
		sr := s.TargetSeries(name, process.MetricRoutes)
		if sr == nil || sr.GapCount() != 1 {
			t.Errorf("%s gaps = %v, want the 1 wedged cycle", name, sr)
		}
	}
}

func TestSupervisorRestartAndFailback(t *testing.T) {
	n := newFleetNetwork(t)
	cfg := fleetConfig(2, 0)
	cfg.RestartBackoff = time.Hour // two 30-minute cycles
	s := newFleet(t, n, cfg)
	for i := 0; i < 3; i++ {
		step(t, n, s)
	}
	before := s.Status().Assignment
	victim, moved := victimShard(t, s)
	s.Kill(victim, shard.KillBeforeCycle)

	step(t, n, s) // crash cycle
	res := step(t, n, s)
	if res.Handoffs != 1 {
		t.Fatalf("expected handoff, got %+v", res)
	}
	deadAt := n.Now()

	// Backoff holds for two cycles, then the worker restarts and steals
	// its ranges back with a live transfer — no blind window.
	for i := 0; i < 2; i++ {
		res = step(t, n, s)
		if res.Handoffs != 0 || len(res.Blind) != 0 {
			t.Fatalf("cycle %v during backoff = %+v", n.Now(), res)
		}
		if row := s.Status().Shards[victim]; row.Alive && n.Now().Sub(deadAt) < time.Hour {
			t.Fatalf("victim restarted %v after death, before the backoff", n.Now().Sub(deadAt))
		}
	}

	st := s.Status()
	row := st.Shards[victim]
	if !row.Alive || row.Generation != 1 || row.Restarts != 1 {
		t.Fatalf("victim after backoff = %+v", row)
	}
	for name, sh := range before {
		if st.Assignment[name] != sh {
			t.Errorf("failback did not restore %s to shard %d (got %d)", name, sh, st.Assignment[name])
		}
	}
	if st.Handoffs != 2 { // the handoff plus the failback
		t.Errorf("handoff events = %d, want 2", st.Handoffs)
	}

	// The restored shard keeps collecting its old targets with history
	// intact: one blind cycle (the crash), everything else points.
	res = step(t, n, s)
	if len(res.Blind) != 0 || len(res.Stats) != len(fleetTargets) {
		t.Fatalf("post-failback cycle = %+v", res)
	}
	for _, name := range moved {
		sr := s.TargetSeries(name, process.MetricRoutes)
		if sr == nil || sr.GapCount() != 1 || sr.Len() != 7 {
			t.Errorf("%s after failback: %d points %d gaps, want 7/1", name, sr.Len(), sr.GapCount())
		}
	}
}

func TestSupervisorTotalOutageRecordsDarkWindow(t *testing.T) {
	n := newFleetNetwork(t)
	cfg := fleetConfig(1, 0)
	cfg.RestartBackoff = time.Hour
	s := newFleet(t, n, cfg)
	for i := 0; i < 2; i++ {
		step(t, n, s)
	}
	s.Kill(0, shard.KillBeforeCycle)

	step(t, n, s) // crash cycle: blind
	res := step(t, n, s)
	if res.Handoffs != 1 || len(res.Blind) != len(fleetTargets) {
		t.Fatalf("no-survivor handoff cycle = %+v", res)
	}
	if len(s.Status().Assignment) != 0 {
		t.Fatal("targets still assigned with no live shards")
	}

	// Dark until the restart; then the whole window is on the record as
	// explicit gaps even though the state itself could not survive.
	step(t, n, s)
	res = step(t, n, s) // backoff expired: restart + reassignment
	if len(res.Blind) != 0 || len(res.Stats) != len(fleetTargets) {
		t.Fatalf("post-restart cycle = %+v", res)
	}
	for _, row := range s.FleetHealth() {
		if row.Shard != 0 {
			t.Errorf("%s not reassigned to the restarted shard: %+v", row.Target, row)
		}
		// Blind cycles: crash, detection, and the two backoff cycles =
		// 4... but the restart cycle itself collected. The dark window
		// spans the 3 recorded cycles between last coverage and the
		// restart boundary.
		if row.GapCount != 3 {
			t.Errorf("%s gap count = %d, want 3 dark cycles", row.Target, row.GapCount)
		}
	}
}

// gateDialer parks every Dial on release after announcing it on
// entered, so a test can hold a fleet cycle in flight.
type gateDialer struct {
	collect.Dialer
	entered chan<- struct{}
	release <-chan struct{}
}

func (d gateDialer) Dial() (io.ReadWriteCloser, error) {
	d.entered <- struct{}{}
	<-d.release
	return d.Dialer.Dial()
}

// TestStatsEndpointWhileCycleInFlight: the supervisor's published views
// are safe from any goroutine while a cycle is in flight. With a 2-shard
// cycle parked on its driver goroutine — every worker inside a session,
// the driver gathering — each view and the server's /stats, /shards and
// /health must answer within a few seconds: the view mutex held across
// the gather would stall them all behind the slowest router. /stats (a
// 404 before EngineStats existed) answers with one engine view per
// shard, as the last published cycle left it.
func TestStatsEndpointWhileCycleInFlight(t *testing.T) {
	const shards = 2
	n := newFleetNetwork(t)
	s := newFleet(t, n, fleetConfig(shards, 0))
	srv := fleetServer(s)
	step(t, n, s)

	// Re-register every target behind the gate; the next cycle parks in
	// its first dials.
	entered := make(chan struct{}, len(fleetTargets))
	release := make(chan struct{})
	for _, name := range fleetTargets {
		s.Register(collect.Target{
			Name:     name,
			Dialer:   gateDialer{Dialer: collect.PipeDialer{Router: n.Router(name)}, entered: entered, release: release},
			Password: "pw",
			Prompt:   name + "> ",
			Timeout:  5 * time.Second,
		})
	}
	n.Step()
	done := make(chan error, 1)
	go func() {
		_, err := s.RunCycle(n.Now())
		done <- err
	}()
	// One worker-pool goroutine per shard: every shard that owns targets
	// parks in its first dial.
	status := s.Status()
	for _, row := range status.Shards {
		if len(row.Targets) > 0 {
			<-entered
		}
	}
	// Let the driver reach its gather behind the parked sessions.
	time.Sleep(50 * time.Millisecond)

	var code int
	var body string
	readsAnswer(t, []read{
		{"Status", func() { s.Status() }},
		{"Merged", func() { s.Merged() }},
		{"FleetAnomalies", func() { s.FleetAnomalies() }},
		{"FleetHealth", func() { s.FleetHealth() }},
		{"EngineStats", func() { s.EngineStats() }},
		{"GET /shards", func() { get(srv, "/shards") }},
		{"GET /health", func() { get(srv, "/health") }},
		{"GET /stats", func() { code, body = get(srv, "/stats") }},
	})
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	if code != 200 {
		t.Fatalf("/stats = %d: %s", code, body)
	}
	var stats []engine.Stats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats) != shards {
		t.Fatalf("/stats has %d entries, want one per shard (%d)", len(stats), shards)
	}
	targets := 0
	for i, st := range stats {
		if len(status.Shards[i].Targets) > 0 && st.Cycles != 1 {
			t.Errorf("shard %d: %d completed cycles mid-flight, want 1", i, st.Cycles)
		}
		targets += len(st.Targets)
	}
	if targets != len(fleetTargets) {
		t.Errorf("/stats covers %d targets, want %d", targets, len(fleetTargets))
	}
}

// read is one named mid-cycle read.
type read struct {
	name string
	fn   func()
}

// readsAnswer runs every read concurrently and fails the test for each
// one that has not returned within 3 s, so one blocked read does not
// hide another.
func readsAnswer(t *testing.T, reads []read) {
	t.Helper()
	done := make([]chan struct{}, len(reads))
	for i, r := range reads {
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			r.fn()
		}()
	}
	expired := make(chan struct{})
	time.AfterFunc(3*time.Second, func() { close(expired) })
	for i, r := range reads {
		select {
		case <-done[i]:
		case <-expired:
			select {
			case <-done[i]: // answered as the bound ran out
			default:
				t.Errorf("%s did not answer within 3s while the cycle was parked in collection", r.name)
			}
		}
	}
}

// TestReRegisterResetsBreaker: registering a name again means the
// operator swapped or fixed the device, so — as Monitor.AddTarget does —
// its breaker starts closed and the next cycle collects it instead of
// skipping it as breaker-open.
func TestReRegisterResetsBreaker(t *testing.T) {
	n := newFleetNetwork(t)
	cfg := fleetConfig(1, 0)
	cfg.Policy.BreakerThreshold = 1
	s, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	n.Router("fixw").Password = "pw"
	target := func(down bool) collect.Target {
		return collect.Target{
			Name:     "fixw",
			Dialer:   outageDialer{Dialer: collect.PipeDialer{Router: n.Router("fixw")}, down: &down},
			Password: "pw",
			Prompt:   "fixw> ",
			Timeout:  fleetTimeout,
		}
	}
	s.Register(target(true))
	step(t, n, s)
	if h := s.FleetHealth()[0]; h.Breaker != collect.BreakerOpen {
		t.Fatalf("breaker after a failed cycle at threshold 1 = %v, want open", h.Breaker)
	}
	s.Register(target(false))
	res := step(t, n, s)
	if len(res.Stats) != 1 || len(res.Degraded) != 0 {
		t.Fatalf("cycle after re-registration: stats %d, degraded %v; want fixw collected", len(res.Stats), res.Degraded)
	}
	if h := s.FleetHealth()[0]; h.Breaker != collect.BreakerClosed || h.ConsecutiveFailures != 0 {
		t.Errorf("health after re-registration = %+v, want a closed breaker and no failure streak", h.TargetHealth)
	}
}

// fleetServer serves a supervisor's views the way the -shards daemon
// does.
func fleetServer(s *shard.Supervisor) *output.Server {
	srv := output.NewServer(s.FleetProc())
	srv.SetShards(func() any { return s.Status() })
	srv.SetHealth(func() any { return s.FleetHealth() })
	srv.SetStats(func() any { return s.EngineStats() })
	srv.SetAnomalies(func() []process.Anomaly { return s.FleetAnomalies() })
	srv.SetSeries(s.SeriesView)
	srv.SetQuery(s.QueryFleet)
	return srv
}

// get serves one request and returns the status and body.
func get(srv *output.Server, path string) (int, string) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// TestCycleResultListsSorted holds CycleResult.Degraded and Blind to
// name order. Both are built from sets, so without their sort they come
// out in map order, and the daemon's log line naming the blind targets
// changes from run to run.
func TestCycleResultListsSorted(t *testing.T) {
	n := newFleetNetwork(t)
	s := newFleet(t, n, fleetConfig(2, 0))
	step(t, n, s)
	bad := []string{"dom03-gw", "ucsb-r1", "dom01-gw", "fixw"}
	for _, name := range bad {
		s.Register(collect.Target{Name: name, Dialer: refusedDialer{}, Prompt: name + "> ", Timeout: fleetTimeout})
	}
	want := slices.Clone(bad)
	slices.Sort(want)
	for i := 0; i < 6; i++ {
		if res := step(t, n, s); !slices.Equal(res.Degraded, want) {
			t.Fatalf("cycle %d: degraded = %v, want %v", i, res.Degraded, want)
		}
	}
	for _, name := range bad {
		s.Register(collect.Target{Name: name, Dialer: collect.PipeDialer{Router: n.Router(name)}, Password: "pw", Prompt: name + "> ", Timeout: fleetTimeout})
	}

	// Kill the shard with more targets, then, after the handoff, the
	// survivor that now owns all of them: both crash cycles are blind.
	st := s.Status()
	big := st.Shards[0]
	if len(st.Shards[1].Targets) > len(big.Targets) {
		big = st.Shards[1]
	}
	s.Kill(big.Index, shard.KillMidCycle)
	if res := step(t, n, s); len(big.Targets) < 3 || !slices.Equal(res.Blind, big.Targets) {
		t.Fatalf("crash cycle blind = %v, want the dead shard's %v in name order", res.Blind, big.Targets)
	}
	step(t, n, s)
	s.Kill(1-big.Index, shard.KillMidCycle)
	all := slices.Clone(fleetTargets)
	slices.Sort(all)
	if res := step(t, n, s); !slices.Equal(res.Blind, all) {
		t.Fatalf("total-outage cycle blind = %v, want every target in name order", res.Blind)
	}
}

// refusedDialer fails every dial at once, as a router that refuses the
// connection does.
type refusedDialer struct{}

func (refusedDialer) Dial() (io.ReadWriteCloser, error) {
	return nil, errors.New("connection refused")
}
