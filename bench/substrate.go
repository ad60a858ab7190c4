// The substrate: the simulated internetwork each workload monitors,
// stepped and rendered into replay transcripts outside every timed
// region. Nothing here is product under test; its cost is reported as
// substrate.step_ms and substrate.render_ms and never enters a sum.
package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core/collect"
	"repro/internal/netsim"
	"repro/internal/router"
	"repro/internal/topo"
	"repro/internal/workload"
)

// cliPassword gates every simulated router's CLI, so the login step of
// the expect session is exercised.
const cliPassword = "pw"

// Session-fault kinds a workload may script. Hang faults are left out
// on purpose: they would time the expect timeout constant, not the
// monitor.
const (
	faultTruncate = 1 + iota
	faultGarble
	faultRejectLogin
	faultRefuse
	faultKinds
)

// faultProfile returns the FaultyRouter profile that injects kind into
// every session it serves. Garbling every line makes the outcome
// certain; the default one-in-four could leave a short dump intact.
func faultProfile(kind int) router.FaultProfile {
	switch kind {
	case faultTruncate:
		return router.FaultProfile{Truncate: 1}
	case faultGarble:
		return router.FaultProfile{Garble: 1, GarblePerLine: 1}
	case faultRejectLogin:
		return router.FaultProfile{RejectLogin: 1}
	}
	return router.FaultProfile{RefuseConn: 1}
}

// tableCounts are the entry counts a router declared in its dump
// headers: the ground truth the monitor's parsed snapshot is held to.
type tableCounts struct {
	Routes, Pairs, SAs, MBGP int
}

// expectation is the scripted outcome of one (target, cycle) collection.
type expectation struct {
	Status   collect.Status
	Attempts int
	Counts   tableCounts // valid unless Status is degraded
}

// cycleInput is everything one cycle hands the systems under test.
type cycleInput struct {
	Cycle int
	At    time.Time
	// Sessions[i] are target i's recorded sessions in attempt order.
	Sessions [][]*transcript
	Expect   []expectation
	// DumpBytes is the size of every session the cycle scripts.
	DumpBytes int
}

// substrate is a built, warmed-up simulated network plus the script of
// session faults laid over it.
type substrate struct {
	net      *netsim.Network
	targets  []string
	commands []string
	// faultRate is the share of (target, cycle) collections that meet a
	// session fault; a quarter of those persist through every retry and
	// end degraded.
	faultRate float64
	faultRNG  *prng
	// faultFree marks cycles in which the script holds its faults back.
	faultFree map[int]bool
	cycle     int
	// step is the monitoring interval one next() advances by.
	step time.Duration

	stepMs, renderMs []float64
}

// prompt is the CLI prompt a target's router issues.
func prompt(target string) string { return target + "> " }

// newSubstrate wraps a built network; targets are tracked and given the
// CLI password.
func newSubstrate(n *netsim.Network, targets []string, faultRate float64, seed int64) (*substrate, error) {
	if err := n.Track(targets...); err != nil {
		return nil, err
	}
	for _, name := range targets {
		n.Router(name).Password = cliPassword
	}
	return &substrate{
		net:       n,
		targets:   targets,
		commands:  collect.StandardCommands,
		faultRate: faultRate,
		faultRNG:  newPRNG(seed ^ 0x5eed),
		faultFree: make(map[int]bool),
		step:      30 * time.Minute,
	}, nil
}

// next advances the network one cycle and records every target's
// sessions for it. Untimed by construction: callers time only the
// monitor call that consumes the result.
func (s *substrate) next() *cycleInput {
	t0 := now()
	s.net.Step()
	t1 := now()
	in := &cycleInput{
		Cycle:    s.cycle,
		At:       s.net.Now(),
		Sessions: make([][]*transcript, len(s.targets)),
		Expect:   make([]expectation, len(s.targets)),
	}
	// The fault script is drawn serially so it depends on the seed alone;
	// rendering then fans out, one router per goroutine at a time. The
	// routers only read simulator state here, exactly as they do when the
	// monitor's collection workers log into them concurrently.
	type plan struct{ faulty, kind int }
	plans := make([]plan, len(s.targets))
	for i := range s.targets {
		if s.faultRate > 0 && s.faultRNG.Bool(s.faultRate) {
			plans[i] = plan{faulty: 1, kind: 1 + s.faultRNG.Intn(faultKinds-1)}
			if s.faultRNG.Bool(0.25) {
				plans[i].faulty = 3 // outlasts the default policy's three attempts
			}
			if s.faultFree[s.cycle] {
				plans[i] = plan{} // drawn all the same, so the script elsewhere does not shift
			}
		}
	}
	render := func(i int) {
		r := s.net.Router(s.targets[i])
		faulty := plans[i].faulty
		for a := 0; a < faulty; a++ {
			fr := router.NewFaultyRouter(r, faultProfile(plans[i].kind), newPRNG(int64(s.cycle)<<20|int64(i)<<4|int64(a)))
			in.Sessions[i] = append(in.Sessions[i], record(fr, cliPassword, s.commands))
		}
		if faulty == 3 {
			in.Expect[i] = expectation{Status: collect.StatusDegraded, Attempts: 3}
			return
		}
		clean := record(r, cliPassword, s.commands)
		in.Sessions[i] = append(in.Sessions[i], clean)
		in.Expect[i] = expectation{Status: collect.StatusOK, Attempts: 1 + faulty, Counts: declaredCounts(clean, s.commands)}
		if faulty > 0 {
			in.Expect[i].Status = collect.StatusRetried
		}
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(s.targets); i += workers {
				render(i)
			}
		}(w)
	}
	wg.Wait()
	for i := range s.targets {
		for _, t := range in.Sessions[i] {
			in.DumpBytes += t.bytes()
		}
	}
	t2 := now()
	s.stepMs = append(s.stepMs, ms(t1-t0))
	s.renderMs = append(s.renderMs, ms(t2-t1))
	s.cycle++
	return in
}

// declaredCounts reads the entry counts out of the table headers of a
// clean transcript ("DVMRP Routing Table - 4123 entries").
func declaredCounts(t *transcript, commands []string) tableCounts {
	var c tableCounts
	// segments: password prompt, first CLI prompt, then one per command.
	for k, cmd := range commands {
		seg := t.segments[2+k]
		if nl := bytes.IndexByte(seg, '\n'); nl >= 0 {
			seg = seg[:nl]
		}
		n := 0
		if i := bytes.LastIndex(seg, []byte(" - ")); i >= 0 {
			rest := seg[i+3:]
			if sp := bytes.IndexByte(rest, ' '); sp >= 0 {
				n, _ = strconv.Atoi(string(rest[:sp]))
			}
		}
		switch cmd {
		case "show ip dvmrp route":
			c.Routes = n
		case "show ip mroute":
			c.Pairs = n
		case "show ip msdp sa-cache":
			c.SAs = n
		case "show ip mbgp":
			c.MBGP = n
		}
	}
	return c
}

// warmed wraps a fault-free network and steps it through its warm-up, so
// that sessions and routes exist before the first timed cycle.
func warmed(n *netsim.Network, targets []string, warmup int) (*substrate, error) {
	sub, err := newSubstrate(n, targets, 0, 0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmup; i++ {
		n.Step()
	}
	return sub, nil
}

// gatewayNames lists the border router of every leaf domain dom00..,
// the per-domain management targets of the fleet workloads.
func gatewayNames(domains int) []string {
	out := make([]string, domains)
	for d := range out {
		out[d] = fmt.Sprintf("dom%02d-gw", d)
	}
	return out
}

// The simulated internetwork is a fixed recording per workload: its
// topology, and the flaps, restarts and session arrivals that play on
// it, come from the simulator's default seeds, so every run of a
// workload monitors the same network history. --seed drives what the
// harness itself generates on top of it: the session-fault script, the
// synthetic history and the request mix. README.md ("Seeds") has the
// measurements behind that split.

// buildDVMRPFleet is the dense-mode fleet: every target's dump is one
// large DVMRP route table and nothing else. There is no session
// workload (the sparse fleet carries the pair path); origination flaps
// and border restarts run at the simulator's default rates.
func buildDVMRPFleet(domains, routersPerDomain, warmup int) (*substrate, error) {
	inet := topo.BuildInternet(topo.ScaleInternetConfig(domains, routersPerDomain))
	n := netsim.New(inet, nil, netsim.DefaultConfig())
	targets := append([]string{"fixw", "ucsb-r1"}, gatewayNames(domains)...)
	return warmed(n, targets, warmup)
}

// buildSparseFleet is the paper's "next generation": every domain
// transitioned to native sparse mode before warm-up, every session
// arrival rate at four times the default. Dumps are (S,G) state, an
// MSDP SA cache and MBGP; the DVMRP table is empty.
func buildSparseFleet(domains, warmup int) (*substrate, error) {
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = domains
	inet := topo.BuildInternet(cfg)
	wcfg := workload.DefaultConfig()
	wcfg.ExperimentalBurstsPerDay *= 4
	wcfg.ConferencesPerDay *= 4
	wcfg.BroadcastsPerDay *= 4
	wcfg.IdlePerDay *= 4
	n := netsim.New(inet, workload.New(wcfg, inet.Topo), netsim.DefaultConfig())
	for d := 0; d < cfg.NumDomains; d++ {
		n.TransitionDomain(fmt.Sprintf("dom%02d", d))
	}
	targets := append([]string{"fixw", "nexch1", "nexch2", "ucsb-gw"}, gatewayNames(cfg.NumDomains)...)
	return warmed(n, targets, warmup)
}

// incidentSpacing is the cycle distance between scheduled incidents:
// six cycles of incident, its resolve bound, and a clean detector
// window before the next one begins.
const (
	incidentSpacing  = 24
	incidentDuration = 6
	incidentWarmup   = 12
)

// scheduledIncident is one library scenario placed on a workload's
// cycle timeline.
type scheduledIncident struct {
	Scenario netsim.Scenario
	// Begin is the timed-cycle index whose dumps first show the incident.
	Begin int
}

// incidentScenarios are the five library scenarios the durable workload
// schedules, in rotation. The library's sixth, sa-storm, is left out
// because it cannot succeed here: FIXW's SA cache holds 180-530 entries
// from cycle 12 on, the storm adds 200, and the detector wants the cache
// doubled (measured: four of four storms undetected).
var incidentScenarios = []string{"prune-storm", "route-leak", "rp-failover", "rp-failure", "unicast-injection"}

// buildIncidentNet is the small paper-scale internet of the durable
// workload: five domains at 15-minute cycles, the default session
// workload, origination flaps at 0.2 per domain per cycle and restarts
// at the default rate, dom00 already native (the RP and route-leak
// scenarios need it), the incident scenarios scheduled back to back for
// as long as the run lasts, and a seeded 3 % of collections meeting a
// session fault.
func buildIncidentNet(seed int64, cycles int) (*substrate, []scheduledIncident, error) {
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 5
	inet := topo.BuildInternet(cfg)
	ncfg := netsim.DefaultConfig()
	ncfg.Cycle = 15 * time.Minute
	ncfg.FlapPerDomainPerCycle = 0.2
	n := netsim.New(inet, workload.New(workload.DefaultConfig(), inet.Topo), ncfg)
	// dom00-gw is the primary watch target of the two RP scenarios.
	sub, err := newSubstrate(n, []string{"fixw", "ucsb-gw", "ucsb-r1", "dom00-gw"}, 0.03, seed)
	if err != nil {
		return nil, nil, err
	}
	sub.step = ncfg.Cycle
	n.Step()
	n.Step()
	n.TransitionDomain("dom00")
	for i := 0; i < incidentWarmup; i++ {
		n.Step() // a clean detector baseline before the first timed cycle
	}
	var plan []scheduledIncident
	for k := 0; (k+1)*incidentSpacing <= cycles; k++ {
		begin := incidentSpacing/2 + k*incidentSpacing
		// Scheduling happens before the first timed step, and an event at
		// offset o fires at the boundary of step o: visible in the dumps
		// of timed cycle o-1.
		sc, err := netsim.LibraryScenario(incidentScenarios[k%len(incidentScenarios)], begin+1, incidentDuration)
		if err != nil {
			return nil, nil, err
		}
		if err := n.ScheduleScenario(sc); err != nil {
			return nil, nil, err
		}
		plan = append(plan, scheduledIncident{Scenario: sc, Begin: begin})
		// No session fault while a detector is expected to fire: a gap can
		// cost a sustained-run detector more than the one cycle it hides,
		// and the detection check should have one answer per seed.
		for c := begin; c <= begin+sc.MaxDetectCycles; c++ {
			sub.faultFree[c] = true
		}
	}
	return sub, plan, nil
}

// buildReadMixNet is the small network under the read-mix workload's
// writes: 24 gateways with short route tables and no sessions, so that
// the cycles keep appending and sealing blocks under the readers
// without the write side dominating the run.
func buildReadMixNet(warmup int) (*substrate, error) {
	cfg := topo.DefaultInternetConfig()
	cfg.MinSubnets, cfg.MaxSubnets = 4, 10
	inet := topo.BuildInternet(cfg)
	n := netsim.New(inet, nil, netsim.DefaultConfig())
	return warmed(n, gatewayNames(cfg.NumDomains), warmup)
}
