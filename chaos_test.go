package mantra_test

// Chaos test for the resilient collection path: one router is wrapped in
// the session-fault layer with ~30% of sessions failing in assorted ways
// (refused connections, rejected logins, hangs, truncation, garbling,
// drops) while a second router stays healthy. Over a long run the monitor
// must never panic, never abort a cycle, never ingest a corrupted
// snapshot, and never let the faulty target's trouble leak into the
// healthy target's series. Faults draw from the simulation's seeded RNG,
// so the run is deterministic.

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/netsim"
	"repro/internal/router"
	"repro/internal/testfault"
	"repro/internal/topo"
	"repro/internal/workload"
)

// chaosMonitor builds a 2-router monitored network with fault injection on
// fixw and a clean path to ucsb-r1.
func chaosMonitor(t *testing.T, profile router.FaultProfile, policy collect.Policy) (*netsim.Network, *mantra.Monitor, *router.FaultyRouter) {
	t.Helper()
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 4
	inet := topo.BuildInternet(cfg)
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	n := netsim.New(inet, wl, netsim.DefaultConfig())
	if err := n.Track("fixw", "ucsb-r1"); err != nil {
		t.Fatal(err)
	}
	faulty := n.FaultyRouter("fixw", profile)
	if faulty == nil {
		t.Fatal("no faulty router")
	}
	m := mantra.New()
	m.SetCollectPolicy(policy)
	n.Router("fixw").Password = "pw"
	n.Router("ucsb-r1").Password = "pw"
	m.AddTarget(mantra.Target{
		Name:     "fixw",
		Dialer:   collect.PipeDialer{Router: faulty},
		Password: "pw",
		Prompt:   "fixw> ",
		Timeout:  100 * time.Millisecond,
	})
	m.AddTarget(mantra.Target{
		Name:     "ucsb-r1",
		Dialer:   collect.PipeDialer{Router: n.Router("ucsb-r1")},
		Password: "pw",
		Prompt:   "ucsb-r1> ",
		Timeout:  5 * time.Second,
	})
	return n, m, faulty
}

func TestChaosCollection(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	profile := router.FaultProfile{
		RefuseConn:  0.06,
		RejectLogin: 0.05,
		Hang:        0.05,
		Truncate:    0.05,
		Garble:      0.05,
		Drop:        0.04,
	}
	n, m, faulty := chaosMonitor(t, profile, collect.Policy{
		MaxAttempts:      2,
		BreakerThreshold: 3,
		BreakerCooldown:  90 * time.Minute,
		Sleep:            func(time.Duration) {},
	})

	const cycles = 220
	counts := map[collect.Status]int{}
	for i := 0; i < cycles; i++ {
		n.Step()
		_, err := m.RunCycle(n.Now())
		if err != nil {
			t.Fatalf("cycle %d aborted with a healthy target present: %v", i, err)
		}
		results := m.LastResults()
		if len(results) != 2 {
			t.Fatalf("cycle %d results = %d", i, len(results))
		}
		fixw, healthy := results[0], results[1]
		counts[fixw.Status]++
		if healthy.Status != collect.StatusOK {
			t.Fatalf("cycle %d: healthy target contaminated: %+v", i, healthy)
		}
		if fixw.Stats != nil {
			// Any snapshot that made it through must match ground truth —
			// a truncated or garbled dump slipping past validation would
			// show up here as a wrong route count.
			r := n.Router("fixw")
			if want := len(r.DVMRP.Table(r.Spec.ID)); fixw.Stats.Routes != want {
				t.Fatalf("cycle %d ingested a corrupted snapshot: routes = %d, want %d",
					i, fixw.Stats.Routes, want)
			}
		}
	}

	// The healthy target's series must be gap-free and complete.
	healthy := m.Series("ucsb-r1", mantra.MetricSessions)
	if healthy.Len() != cycles || healthy.GapCount() != 0 {
		t.Errorf("healthy series: %d points, %d gaps; want %d, 0",
			healthy.Len(), healthy.GapCount(), cycles)
	}
	// The faulty target's series must account for every cycle: a point on
	// success, an explicit gap otherwise.
	fs := m.Series("fixw", mantra.MetricSessions)
	if fs.Len()+fs.GapCount() != cycles {
		t.Errorf("faulty series: %d points + %d gaps != %d cycles",
			fs.Len(), fs.GapCount(), cycles)
	}
	if ok := counts[collect.StatusOK] + counts[collect.StatusRetried]; fs.Len() != ok {
		t.Errorf("faulty series has %d points, %d cycles succeeded", fs.Len(), ok)
	}
	// Sanity: the chaos actually happened, and the target still mostly
	// collected (retries absorb most single-attempt faults).
	if counts[collect.StatusRetried] == 0 {
		t.Error("no cycle needed a retry — fault injection inert?")
	}
	if counts[collect.StatusDegraded]+counts[collect.StatusBreakerOpen] == 0 {
		t.Error("no cycle degraded over the whole chaos run")
	}
	if counts[collect.StatusOK] == 0 {
		t.Error("no clean cycle over the whole chaos run")
	}
	injected := 0
	for _, c := range faulty.Injected() {
		injected += c
	}
	if injected == 0 {
		t.Error("no faults injected")
	}
	t.Logf("statuses: %v; injected: %v", counts, faulty.Injected())
}

// TestChaosBreakerLifecycle drives a fully dead target through the whole
// breaker arc under simulated time: closed → open after the threshold,
// cooldown skips, a failed half-open probe re-opening it, then recovery to
// closed once the router heals.
func TestChaosBreakerLifecycle(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	n, m, faulty := chaosMonitor(t, router.FaultProfile{RefuseConn: 1}, collect.Policy{
		MaxAttempts:      1,
		BreakerThreshold: 3,
		BreakerCooldown:  90 * time.Minute, // three 30-minute sim cycles
		Sleep:            func(time.Duration) {},
	})
	cycle := func() mantra.CollectResult {
		t.Helper()
		n.Step()
		if _, err := m.RunCycle(n.Now()); err != nil {
			t.Fatalf("cycle aborted: %v", err)
		}
		return m.LastResults()[0]
	}

	// Three failed cycles open the breaker.
	for i := 0; i < 3; i++ {
		if r := cycle(); r.Status != collect.StatusDegraded {
			t.Fatalf("cycle %d = %+v, want degraded", i, r)
		}
	}
	if h := m.Health()[0]; h.Breaker != collect.BreakerOpen || h.ConsecutiveFailures != 3 {
		t.Fatalf("breaker did not open: %+v", h)
	}
	// Two cycles inside the 90-minute cooldown are skipped outright.
	for i := 0; i < 2; i++ {
		if r := cycle(); r.Status != collect.StatusBreakerOpen || r.Attempts != 0 {
			t.Fatalf("cooldown cycle %d = %+v, want breaker-open skip", i, r)
		}
	}
	// The cooldown has elapsed: a half-open probe runs, fails, re-opens.
	if r := cycle(); r.Status != collect.StatusDegraded || r.Attempts != 1 {
		t.Fatalf("probe cycle = %+v, want a single failed attempt", r)
	}
	if r := cycle(); r.Status != collect.StatusBreakerOpen {
		t.Fatalf("after failed probe = %+v, want breaker-open", r)
	}

	// Heal the router; the next probe closes the breaker and collection
	// resumes.
	faulty.Profile = router.FaultProfile{}
	if r := cycle(); r.Status != collect.StatusBreakerOpen {
		t.Fatalf("still cooling down = %+v", r)
	}
	if r := cycle(); r.Status != collect.StatusOK {
		t.Fatalf("recovery probe = %+v, want ok", r)
	}
	h := m.Health()[0]
	if h.Breaker != collect.BreakerClosed || h.ConsecutiveFailures != 0 {
		t.Errorf("breaker did not recover: %+v", h)
	}
	if h.LastSuccess.IsZero() || h.LastError != "" {
		t.Errorf("health not reset on recovery: %+v", h)
	}
	if r := cycle(); r.Status != collect.StatusOK {
		t.Errorf("post-recovery cycle = %+v", r)
	}
}

// ---- Scripted-incident chaos proofs ----
//
// The scenario library in internal/netsim scripts protocol-level
// incidents (RP loss, SA storms, MBGP leaks, unicast-route injection,
// prune storms) against the virtual clock; each scenario carries its
// detection contract (kind, watch targets, latency bounds). The proofs
// below run every library scenario under clean AND fault-degraded
// collection and assert the detector framework honors those contracts:
// bounded detection latency (plus one cycle of slack per collection
// gap), no false resolution while the incident is active, and bounded
// resolution latency after it ends.

// incidentMonitor builds the 3-target monitored network the library
// scenarios assume: dom00 transitioned to native sparse mode, scripted
// faults only (no random background failures), and the primary watch
// target optionally wrapped in the session-fault layer.
func incidentMonitor(t testing.TB, profile *router.FaultProfile, primary string) (*netsim.Network, *mantra.Monitor) {
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
	m := mantra.New()
	m.SetCollectPolicy(collect.Policy{
		MaxAttempts: 3,
		// The latency proofs reason in gaps, not breaker skips: keep the
		// breaker out of the arithmetic.
		BreakerThreshold: 1 << 20,
		BreakerCooldown:  90 * time.Minute,
		Sleep:            func(time.Duration) {},
	})
	for _, name := range targets {
		n.Router(name).Password = "pw"
		tgt := mantra.Target{
			Name:     name,
			Dialer:   collect.PipeDialer{Router: n.Router(name)},
			Password: "pw",
			Prompt:   name + "> ",
			Timeout:  5 * time.Second,
		}
		if profile != nil && name == primary {
			tgt.Dialer = collect.PipeDialer{Router: n.FaultyRouter(name, *profile)}
			tgt.Timeout = 100 * time.Millisecond
		}
		m.AddTarget(tgt)
	}
	return n, m
}

// degradedProfile is the session-fault mix applied to the primary watch
// target in the degraded arm of the incident proofs: enough trouble
// that collection gaps actually occur over a scenario, mild enough that
// retries absorb most of it.
func degradedProfile() *router.FaultProfile {
	return &router.FaultProfile{
		RefuseConn: 0.05,
		Hang:       0.04,
		Truncate:   0.05,
		Garble:     0.04,
		Drop:       0.04,
	}
}

// runIncidentScenario drives one library scenario under a fault profile
// (nil = clean collection) and asserts its detection contract. It
// returns the observed detection latency in cycles from the incident
// becoming visible.
func runIncidentScenario(t testing.TB, name string, profile *router.FaultProfile) int {
	const (
		warmup   = 10
		duration = 6
	)
	sc, err := netsim.LibraryScenario(name, 1, duration)
	if err != nil {
		t.Fatal(err)
	}
	primary := sc.Watch[0]
	n, m := incidentMonitor(t, profile, primary)
	gapCount := func() int {
		s := m.Series(primary, mantra.MetricRoutes)
		if s == nil {
			return 0
		}
		return s.GapCount()
	}
	episode := func() *mantra.Anomaly {
		for _, a := range m.Anomalies() {
			if a.Kind == sc.DetectKind && a.Target == primary {
				return &a
			}
		}
		return nil
	}
	runCycle := func() {
		t.Helper()
		n.Step()
		if _, err := m.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		runCycle()
	}
	if a := episode(); a != nil {
		t.Fatalf("anomaly open before the incident: %+v", a)
	}
	if err := n.ScheduleScenario(sc); err != nil {
		t.Fatal(err)
	}

	// The begin event fires at the boundary of the next cycle, before
	// that cycle's protocol ticks, so the incident is visible to
	// collection from offset 1 on.
	startGaps := gapCount()
	detected := 0
	for off := 1; off <= duration; off++ {
		runCycle()
		a := episode()
		if a == nil {
			continue
		}
		if detected == 0 {
			detected = off
		}
		if a.Resolved {
			t.Fatalf("cycle %d: anomaly resolved while the incident is active: %+v", off, a)
		}
	}
	if detected == 0 {
		t.Fatalf("%s at %s not detected within the incident's %d cycles", sc.DetectKind, primary, duration)
	}
	if slack := gapCount() - startGaps; detected > sc.MaxDetectCycles+slack {
		t.Errorf("detection latency = %d cycles, bound %d (+%d gap slack)",
			detected, sc.MaxDetectCycles, slack)
	}

	// The end event fires at the boundary of cycle duration+1; the
	// episode must resolve within MaxResolveCycles of it, again with one
	// cycle of slack per collection gap (a gap can neither observe the
	// recovery nor falsely resolve the episode).
	endGaps := gapCount()
	resolvedIn := 0
	for off := 1; off <= sc.MaxResolveCycles+8; off++ {
		runCycle()
		a := episode()
		if a == nil {
			t.Fatal("episode vanished from the anomaly log")
		}
		if a.Resolved {
			resolvedIn = off
			break
		}
	}
	if resolvedIn == 0 {
		t.Fatalf("%s at %s never resolved after the incident ended", sc.DetectKind, primary)
	}
	if slack := gapCount() - endGaps; resolvedIn > sc.MaxResolveCycles+slack {
		t.Errorf("resolution latency = %d cycles, bound %d (+%d gap slack)",
			resolvedIn, sc.MaxResolveCycles, slack)
	}
	// Exactly one episode per incident: the frozen-baseline lifecycle
	// must not double-report while the signature persists.
	count := 0
	for _, a := range m.Anomalies() {
		if a.Kind == sc.DetectKind && a.Target == primary {
			count++
		}
	}
	if count != 1 {
		t.Errorf("episodes of %s at %s = %d, want 1", sc.DetectKind, primary, count)
	}
	return detected
}

// TestChaosIncidentDetection is the incidents x fault-profiles table:
// every library scenario must satisfy its detection contract under both
// clean and degraded collection.
func TestChaosIncidentDetection(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	profiles := []struct {
		name    string
		profile *router.FaultProfile
	}{
		{"clean", nil},
		{"degraded", degradedProfile()},
	}
	for _, name := range netsim.LibraryScenarios() {
		for _, prof := range profiles {
			t.Run(name+"/"+prof.name, func(t *testing.T) {
				latency := runIncidentScenario(t, name, prof.profile)
				t.Logf("%s under %s collection: detected in %d cycles", name, prof.name, latency)
			})
		}
	}
}

// TestChaosSerialPipelinedAnomalyIdentity proves the anomaly log is
// schedule-independent: two same-seed networks running overlapping
// incidents under degraded collection — one monitored by the serial
// engine, one by the pipelined engine — must produce byte-identical
// anomaly logs and health rollups.
func TestChaosSerialPipelinedAnomalyIdentity(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	run := func(pipelined bool) []byte {
		sc, err := netsim.LibraryScenario("sa-storm", 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		n, m := incidentMonitor(t, degradedProfile(), sc.Watch[0])
		cycle := func() {
			t.Helper()
			n.Step()
			var err error
			if pipelined {
				_, err = m.RunCycleConcurrent(n.Now())
			} else {
				_, err = m.RunCycle(n.Now())
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		if err := n.ScheduleScenario(sc); err != nil {
			t.Fatal(err)
		}
		sc2, err := netsim.LibraryScenario("unicast-injection", 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.ScheduleScenario(sc2); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 14; i++ {
			cycle()
		}
		anomalies := m.Anomalies()
		if len(anomalies) == 0 {
			t.Fatal("no anomalies to compare")
		}
		blob, err := json.Marshal(struct {
			Anomalies []mantra.Anomaly     `json:"anomalies"`
			Rollup    mantra.AnomalyRollup `json:"rollup"`
		}{anomalies, m.AnomalyRollup()})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	serial := run(false)
	pipelined := run(true)
	if !bytes.Equal(serial, pipelined) {
		t.Errorf("serial and pipelined anomaly logs diverge:\n serial:    %s\n pipelined: %s", serial, pipelined)
	}
}
