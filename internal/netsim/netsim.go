// Package netsim drives the simulated multicast internetwork: each Step()
// advances one monitoring cycle, during which the workload churns,
// routing protocols exchange state, distribution trees are maintained,
// and traffic is accounted on the routers' forwarding caches.
//
// The construction replaces the paper's substrate — the live 1998–1999
// multicast Internet — with a deterministic model that produces the same
// observable router state Mantra scraped: DVMRP route tables that flap
// and diverge, dense-mode forwarding caches holding state for every
// active source, and sparse-mode state that exists only where downstream
// receivers are.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/dvmrp"
	"repro/internal/forwarding"
	"repro/internal/igmp"
	"repro/internal/mbgp"
	"repro/internal/msdp"
	"repro/internal/pim"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Config parameterizes a Network.
type Config struct {
	// Cycle is the monitoring interval Step() advances by.
	Cycle time.Duration
	// Seed drives the fault model's random stream.
	Seed int64
	// FlapPerDomainPerCycle is the probability a DVMRP domain flaps a
	// chunk of its prefixes in a given cycle.
	FlapPerDomainPerCycle float64
	// RestartPerCycle is the probability some DVMRP router restarts in
	// a given cycle.
	RestartPerCycle float64
	// SPTThresholdKbps is the sparse-mode shortest-path-tree switchover
	// threshold.
	SPTThresholdKbps float64
	// PruneLifetime is the dense-mode forwarding-state idle timeout.
	PruneLifetime time.Duration
}

// DefaultConfig returns the configuration the paper-scale experiments use.
func DefaultConfig() Config {
	return Config{
		Cycle:                 30 * time.Minute,
		Seed:                  77,
		FlapPerDomainPerCycle: 0.05,
		RestartPerCycle:       0.015,
		SPTThresholdKbps:      4,
		PruneLifetime:         2 * time.Hour,
	}
}

// Network is the running internetwork.
type Network struct {
	Topo  *topo.Topology
	Inet  *topo.Internet // nil for standalone topologies
	Clock *sim.Clock
	Sched *sim.Scheduler

	DVMRP *dvmrp.Cloud
	MBGP  *mbgp.Mesh
	MSDP  *msdp.Mesh
	RPs   *pim.RPMap

	Workload *workload.Generator

	cfg     Config
	rng     *sim.RNG
	routers map[topo.NodeID]*router.Router
	// tracked routers materialize forwarding/IGMP/PIM state.
	tracked map[topo.NodeID]bool
	policy  pim.Policy

	// per-cycle caches
	denseTrees  map[topo.NodeID]map[topo.NodeID]*topo.Link
	nativeTrees map[topo.NodeID]map[topo.NodeID]*topo.Link
	denseComp   map[topo.NodeID]int

	cycles uint64
}

// New builds a network over a pre-built internet topology and workload.
// wl may be nil for route-monitoring-only experiments.
func New(inet *topo.Internet, wl *workload.Generator, cfg Config) *Network {
	n := newCommon(inet.Topo, cfg)
	n.Inet = inet
	n.Workload = wl
	n.bootstrapOrigins()
	return n
}

// NewStandalone builds a network over a plain topology (e.g. a campus).
func NewStandalone(t *topo.Topology, wl *workload.Generator, cfg Config) *Network {
	n := newCommon(t, cfg)
	n.Workload = wl
	n.bootstrapOrigins()
	return n
}

func newCommon(t *topo.Topology, cfg Config) *Network {
	if cfg.Cycle <= 0 {
		cfg.Cycle = 30 * time.Minute
	}
	if cfg.PruneLifetime <= 0 {
		cfg.PruneLifetime = 2 * time.Hour
	}
	clock := sim.NewEpochClock()
	n := &Network{
		Topo:        t,
		Clock:       clock,
		Sched:       sim.NewScheduler(clock),
		DVMRP:       dvmrp.NewCloud(t, sim.NewRNG(cfg.Seed+1), cfg.Cycle),
		MBGP:        mbgp.NewMesh(t),
		MSDP:        msdp.NewMesh(3 * cfg.Cycle),
		RPs:         pim.NewRPMap(),
		cfg:         cfg,
		rng:         sim.NewRNG(cfg.Seed),
		routers:     make(map[topo.NodeID]*router.Router),
		tracked:     make(map[topo.NodeID]bool),
		policy:      pim.Policy{SPTThresholdKbps: cfg.SPTThresholdKbps},
		denseTrees:  make(map[topo.NodeID]map[topo.NodeID]*topo.Link),
		nativeTrees: make(map[topo.NodeID]map[topo.NodeID]*topo.Link),
	}
	for _, r := range t.Routers() {
		n.routers[r.ID] = &router.Router{
			Spec:  r,
			Topo:  t,
			Clock: clock,
			DVMRP: n.DVMRP,
			MBGP:  n.MBGP,
			MSDP:  n.MSDP,
			IGMP:  igmp.NewRouter(r.ID, 0),
			PIM:   pim.NewRouter(r.ID, 0),
			FWD:   forwarding.NewTable(r.ID, cfg.PruneLifetime),
		}
		if r.Mode == topo.ModeDVMRP || r.Mode == topo.ModeBorder {
			n.DVMRP.EnsureRouter(r.ID)
		}
	}
	return n
}

// bootstrapOrigins injects each domain's prefixes into DVMRP: every router
// originates its leaf subnets, and the border originates the rest of the
// domain's space (aggregated per the domain's policy).
func (n *Network) bootstrapOrigins() {
	now := n.Clock.Now()
	for _, d := range n.Topo.Domains() {
		if d.Mode != topo.ModeDVMRP {
			continue
		}
		n.reoriginate(d, now)
	}
	// Native cores speak MBGP and host MSDP from the start, idle until
	// domains transition onto them.
	for _, r := range n.Topo.Routers() {
		if r.Core && r.Mode == topo.ModePIMSM {
			n.MBGP.EnsureSpeaker(r.ID, uint16(64000+int(r.ID)))
			n.MSDP.EnsureRP(r.ID)
		}
	}
	n.peerCoreMSDP()
}

// peerCoreMSDP (re)establishes MSDP peerings between core RPs.
func (n *Network) peerCoreMSDP() {
	var cores []topo.NodeID
	for _, r := range n.Topo.Routers() {
		if r.Core && n.MSDP.HasRP(r.ID) {
			cores = append(cores, r.ID)
		}
	}
	for i := 0; i < len(cores); i++ {
		for j := i + 1; j < len(cores); j++ {
			n.MSDP.Peer(cores[i], cores[j])
		}
	}
}

// Track materializes forwarding, IGMP and PIM state at the named routers.
// Only tracked routers can be meaningfully monitored; tracking is how the
// simulation keeps per-cycle cost proportional to the monitored set.
func (n *Network) Track(names ...string) error {
	for _, name := range names {
		r := n.Topo.RouterByName(name)
		if r == nil {
			return fmt.Errorf("netsim: unknown router %q", name)
		}
		n.tracked[r.ID] = true
	}
	return nil
}

// TrackIDs is Track by node ID.
func (n *Network) TrackIDs(ids ...topo.NodeID) {
	for _, id := range ids {
		if _, ok := n.routers[id]; ok {
			n.tracked[id] = true
		}
	}
}

// Router returns the named router handle, or nil.
func (n *Network) Router(name string) *router.Router {
	r := n.Topo.RouterByName(name)
	if r == nil {
		return nil
	}
	return n.routers[r.ID]
}

// RouterByID returns a router handle by node ID, or nil.
func (n *Network) RouterByID(id topo.NodeID) *router.Router { return n.routers[id] }

// FaultyRouter wraps the named router's CLI in the session-fault layer,
// drawing faults from an independent stream forked off the sim RNG so
// chaos experiments reproduce exactly per seed. Returns nil for unknown
// routers. The wrapper implements the collector's SessionHandler contract
// and plugs straight into collect.PipeDialer.
func (n *Network) FaultyRouter(name string, profile router.FaultProfile) *router.FaultyRouter {
	r := n.Router(name)
	if r == nil {
		return nil
	}
	return router.NewFaultyRouter(r, profile, n.rng.Fork())
}

// Cycles returns how many Steps have run.
func (n *Network) Cycles() uint64 { return n.cycles }

// Now returns the current virtual time.
func (n *Network) Now() time.Time { return n.Clock.Now() }

// TransitionDomain migrates a DVMRP domain to native sparse mode,
// reconfiguring every affected protocol: the domain leaves the DVMRP
// cloud, its border becomes an MBGP speaker and MSDP RP, and FIXW assumes
// the border role on first use.
func (n *Network) TransitionDomain(name string) {
	if n.Inet == nil {
		return
	}
	d := n.Topo.Domain(name)
	if d == nil || d.Mode != topo.ModeDVMRP {
		return
	}
	now := n.Clock.Now()
	wasBorderless := n.Inet.FIXW.Mode != topo.ModeBorder
	n.Inet.TransitionDomain(name)

	for _, id := range d.Routers {
		n.DVMRP.RemoveRouter(id, now)
	}
	border := d.Border()
	n.MBGP.EnsureSpeaker(border, d.ASN)
	n.MBGP.Originate(border, now, addr.Aggregate(d.Prefixes)...)
	n.MSDP.EnsureRP(border)
	n.RPs.Assign(name, border)
	// Peer the new RP with the cores its native links reach.
	for _, l := range n.Inet.NativeLinks[name] {
		other := l.Other(border).Router
		if n.MSDP.HasRP(other) {
			n.MSDP.Peer(border, other)
		}
	}
	if wasBorderless && n.Inet.FIXW.Mode == topo.ModeBorder {
		// FIXW now borders both worlds: MBGP speaker, and RP proxy for
		// the remaining DVMRP cloud.
		n.MBGP.EnsureSpeaker(n.Inet.FIXW.ID, 5459)
		n.MSDP.EnsureRP(n.Inet.FIXW.ID)
		n.peerCoreMSDP()
	}
	if n.MBGP.HasSpeaker(n.Inet.FIXW.ID) {
		// FIXW stops proxying the transitioned domain's space and
		// advertises what remains of the DVMRP world into MBGP.
		n.MBGP.Withdraw(n.Inet.FIXW.ID, now, addr.Aggregate(d.Prefixes)...)
		var denseSpace []addr.Prefix
		for _, dd := range n.Topo.Domains() {
			if dd.Mode == topo.ModeDVMRP {
				denseSpace = append(denseSpace, addr.Aggregate(dd.Prefixes)...)
			}
		}
		n.MBGP.Originate(n.Inet.FIXW.ID, now, denseSpace...)
	}
}

// ScheduleTransition arranges TransitionDomain(name) at time at.
func (n *Network) ScheduleTransition(name string, at time.Time) {
	n.Sched.At(at, "transition "+name, func(*sim.Scheduler) {
		n.TransitionDomain(name)
	})
}

// InjectUnicastRoutes reproduces the October 14 1998 incident: unicast
// prefixes leak into a router's DVMRP table for the given duration. It
// is the time-based form of scheduling a UnicastInjection incident.
func (n *Network) InjectUnicastRoutes(routerName string, count int, at time.Time, d time.Duration) error {
	inc := &UnicastInjection{Router: routerName, Count: count}
	if err := inc.Validate(n); err != nil {
		return fmt.Errorf("netsim: %w", err)
	}
	n.Sched.At(at, "unicast-injection", func(*sim.Scheduler) {
		inc.Begin(n, n.Clock.Now())
	})
	n.Sched.At(at.Add(d), "unicast-injection-clear", func(*sim.Scheduler) {
		inc.End(n, n.Clock.Now())
	})
	return nil
}

// Step advances the simulation by one cycle.
func (n *Network) Step() {
	next := n.Clock.Now().Add(n.cfg.Cycle)
	n.Sched.RunUntil(next)
	now := n.Clock.Now()

	if n.Workload != nil {
		n.Workload.Advance(now, n.cfg.Cycle)
	}
	n.faults(now)
	n.DVMRP.Tick(now)
	n.MBGP.Tick(now)
	n.invalidateTrees()
	if n.Workload != nil {
		n.originateSAs(now)
		n.MSDP.Tick(now)
		n.rebuild(now)
	}
	n.expire(now)
	n.cycles++
}

// faults applies the stochastic fault model: origination flaps and router
// restarts in the DVMRP cloud.
func (n *Network) faults(now time.Time) {
	for _, d := range n.Topo.Domains() {
		if d.Mode != topo.ModeDVMRP {
			continue
		}
		if !n.rng.Bool(n.cfg.FlapPerDomainPerCycle) {
			continue
		}
		// Withdraw a contiguous chunk of the domain's prefixes and
		// restore it one to three cycles later.
		if len(d.Prefixes) < 4 {
			continue
		}
		chunk := 1 + n.rng.Intn(len(d.Prefixes)/4)
		start := n.rng.Intn(len(d.Prefixes) - chunk)
		flapped := append([]addr.Prefix(nil), d.Prefixes[start:start+chunk]...)
		border := d.Border()
		n.DVMRP.Withdraw(border, now, flapped...)
		back := now.Add(time.Duration(1+n.rng.Intn(3)) * n.cfg.Cycle)
		n.Sched.At(back, "flap-restore "+d.Name, func(*sim.Scheduler) {
			if n.Topo.Domain(d.Name).Mode == topo.ModeDVMRP {
				n.DVMRP.Originate(border, n.Clock.Now(), 1, flapped...)
			}
		})
	}
	if n.rng.Bool(n.cfg.RestartPerCycle) {
		// Restart a random DVMRP border.
		var candidates []topo.NodeID
		for _, d := range n.Topo.Domains() {
			if d.Mode == topo.ModeDVMRP {
				candidates = append(candidates, d.Border())
			}
		}
		if len(candidates) > 0 {
			id := candidates[n.rng.Intn(len(candidates))]
			n.DVMRP.Restart(id, now)
			// Restore the restarted router's originations.
			d := n.Topo.DomainOf(id)
			if d != nil {
				n.reoriginate(d, now)
			}
		}
	}
}

// reoriginate installs a domain's originations, at start and again after
// a restart.
func (n *Network) reoriginate(d *topo.Domain, now time.Time) {
	owned := make(map[addr.Prefix]bool)
	for _, id := range d.Routers {
		r := n.Topo.Router(id)
		if n.DVMRP.HasRouter(id) {
			// PIM-DM interior routers are not in the cloud; the border
			// originates their subnets below.
			n.DVMRP.Originate(id, now, 0, r.LeafPrefixes...)
			for _, p := range r.LeafPrefixes {
				owned[p] = true
			}
		}
	}
	var rest []addr.Prefix
	for _, p := range d.Prefixes {
		if !owned[p] {
			rest = append(rest, p)
		}
	}
	if d.Aggregate {
		rest = addr.Aggregate(d.Prefixes)
	}
	n.DVMRP.Originate(d.Border(), now, 1, rest...)
}

// originateSAs registers every active native-world source at its domain
// RP, and every dense-world source at FIXW when FIXW is a border RP.
func (n *Network) originateSAs(now time.Time) {
	fixwRP := topo.NodeID(-1)
	if n.Inet != nil && n.MSDP.HasRP(n.Inet.FIXW.ID) {
		fixwRP = n.Inet.FIXW.ID
	}
	for _, s := range n.Workload.Sessions() {
		for _, m := range s.MemberList() {
			edge := n.Topo.Router(m.Edge)
			if edge == nil {
				continue
			}
			switch edge.Mode {
			case topo.ModePIMSM:
				if rp, ok := n.RPs.For(edge.Domain); ok {
					n.MSDP.Originate(rp, m.Host, s.Group, now)
				}
			case topo.ModeDVMRP, topo.ModePIMDM:
				if fixwRP >= 0 {
					n.MSDP.Originate(fixwRP, m.Host, s.Group, now)
				}
			}
		}
	}
}

// expire ages out stale state at tracked routers.
func (n *Network) expire(now time.Time) {
	for id, tracked := range n.tracked {
		if !tracked {
			continue
		}
		r := n.routers[id]
		r.IGMP.Expire(now)
		r.PIM.ExpireStale(now)
		r.FWD.DecayIdle(now, n.cfg.Cycle)
		// Sparse entries live exactly as long as their joins: anything
		// not refreshed during this cycle's rebuild is gone.
		r.FWD.RemoveIf(func(e *forwarding.Entry) bool {
			return e.Flags.Has(forwarding.FlagSparse) && e.LastRefresh.Before(now)
		})
	}
}

func (n *Network) invalidateTrees() {
	n.denseTrees = make(map[topo.NodeID]map[topo.NodeID]*topo.Link)
	n.nativeTrees = make(map[topo.NodeID]map[topo.NodeID]*topo.Link)
	n.denseComp = nil
}

// denseTree returns (cached) the RPF spanning tree rooted at src over
// DVMRP links.
func (n *Network) denseTree(src topo.NodeID) map[topo.NodeID]*topo.Link {
	t, ok := n.denseTrees[src]
	if !ok {
		t = n.Topo.SpanningTree(src, n.Topo.DenseLinks())
		n.denseTrees[src] = t
	}
	return t
}

// nativeTree returns (cached) the spanning tree rooted at src over native
// links.
func (n *Network) nativeTree(src topo.NodeID) map[topo.NodeID]*topo.Link {
	t, ok := n.nativeTrees[src]
	if !ok {
		t = n.Topo.SpanningTree(src, n.Topo.NativeLinks())
		n.nativeTrees[src] = t
	}
	return t
}

// comp returns the dense component labelling, computed lazily per cycle.
func (n *Network) comp() map[topo.NodeID]int {
	if n.denseComp != nil {
		return n.denseComp
	}
	n.denseComp = make(map[topo.NodeID]int)
	label := 0
	filter := n.Topo.DenseLinks()
	for _, r := range n.Topo.Routers() {
		if !denseMode(r.Mode) {
			continue
		}
		if _, seen := n.denseComp[r.ID]; seen {
			continue
		}
		label++
		for id := range n.Topo.Reachable(r.ID, filter) {
			n.denseComp[id] = label
		}
	}
	return n.denseComp
}

// denseMode reports whether a routing mode floods dense-mode data.
func denseMode(m topo.Mode) bool {
	return m == topo.ModeDVMRP || m == topo.ModeBorder || m == topo.ModePIMDM
}
