// Package dvmrp implements the Distance Vector Multicast Routing Protocol
// as deployed on the 1998 MBone: periodic route reports with split horizon
// and poison reverse, per-neighbor refresh timeouts, hold-down-free route
// replacement, and an infinity metric of 32.
//
// The implementation is incremental: routers exchange full vectors only
// when an adjacency (re)forms or on the staggered periodic full refresh,
// and unacknowledged deltas ("flash updates") otherwise. Losing a flash
// update leaves the receiver stale until the next full sync; losing
// consecutive periodic updates expires every route learned from that
// neighbor — the mechanisms behind the route-count instability and
// cross-router inconsistency in Figures 7–9 of the paper.
package dvmrp

import (
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Infinity is the DVMRP unreachable metric.
const Infinity = 32

// unreachable is the internal metric meaning "no route".
const unreachable = 2 * Infinity

// pkey is a route table key: the prefix packed into one word so map
// operations take the fast integer-hash path.
type pkey uint64

func pack(p addr.Prefix) pkey      { return pkey(uint64(p.Addr)<<6 | uint64(p.Len)) }
func (k pkey) unpack() addr.Prefix { return addr.Prefix{Addr: addr.IP(k >> 6), Len: uint8(k & 63)} }

// Route is one entry of a router's DVMRP routing table.
type Route struct {
	Prefix addr.Prefix
	// Metric is the distance in hops, 0 for self-originated routes.
	Metric int
	// Via is the upstream neighbor the route was learned from;
	// -1 for self-originated routes.
	Via topo.NodeID
	// Since is when the prefix first became reachable through the
	// current continuous reachability period (route uptime).
	Since time.Time
	// LastChange is when metric or upstream last changed.
	LastChange time.Time
}

// SelfOrigin is the Via value of locally originated routes.
const SelfOrigin topo.NodeID = -1

// Stats aggregates protocol activity counters for a Cloud.
type Stats struct {
	// UpdatesSent and UpdatesLost count periodic per-neighbor updates.
	UpdatesSent, UpdatesLost uint64
	// FullSyncs counts full-table exchanges on adjacency formation.
	FullSyncs uint64
	// RouteChanges counts table mutations (install/replace/delete).
	RouteChanges uint64
	// NeighborExpiries counts per-neighbor timeout events.
	NeighborExpiries uint64
	// HoldDowns counts routes placed in hold-down.
	HoldDowns uint64
	// ConvergenceRounds counts triggered-update rounds run by Tick.
	ConvergenceRounds uint64
}

type neighborView struct {
	// vector is the last route vector received from the neighbor:
	// prefix -> advertised metric (post-poison entries are absent).
	vector map[pkey]int
	// lastHeard is when a periodic update last arrived.
	lastHeard time.Time
	// needFull requests a full-table resync (new adjacency or restart).
	needFull bool
}

type routerState struct {
	id     topo.NodeID
	origin map[pkey]int
	table  map[pkey]*Route
	// nbr holds the per-neighbor receive state.
	nbr map[topo.NodeID]*neighborView
	// pending[n] holds prefixes whose advertisement toward neighbor n
	// changed since the last delivered update.
	pending map[topo.NodeID]map[pkey]struct{}
	// holddown suppresses reinstallation of recently worsened routes
	// until the stored instant, breaking count-to-infinity episodes.
	holddown map[pkey]time.Time
	genID    uint32
	// nbrList caches the live neighbor set; nbrGen validates it.
	nbrList []topo.NodeID
	nbrGen  uint64
}

// Cloud is the set of DVMRP-speaking routers and their protocol state.
// All methods must be called from the single simulation goroutine.
type Cloud struct {
	topo *topo.Topology
	rng  *sim.RNG
	// NeighborTimeout expires routes from a silent neighbor. The mrouted
	// default of 140 s scales here to monitoring-cycle granularity: two
	// consecutive lost periodic updates kill the adjacency.
	NeighborTimeout time.Duration
	// FullSyncEvery is the staggered full-table refresh period in ticks.
	// Between full syncs, updates are unacknowledged deltas: a lost
	// flash update leaves the receiver stale until the next full sync —
	// the persistent cross-router inconsistency the paper reports.
	FullSyncEvery uint64
	routers       map[topo.NodeID]*routerState
	stats         Stats
	tick          uint64
	// holdDur is the hold-down period applied when a route worsens;
	// defaults to one tick interval, as in mrouted's hold-down of two
	// update intervals at its much finer update granularity.
	holdDur time.Duration
	filter  topo.LinkFilter
	nbrGen  uint64
}

// NewCloud returns an empty DVMRP cloud over t. tick is the interval at
// which Tick will be called; the neighbor timeout defaults to just over
// twice that, so two consecutive lost updates expire an adjacency.
func NewCloud(t *topo.Topology, rng *sim.RNG, tick time.Duration) *Cloud {
	return &Cloud{
		topo:            t,
		rng:             rng,
		NeighborTimeout: 2*tick + tick/2,
		FullSyncEvery:   8,
		holdDur:         tick,
		routers:         make(map[topo.NodeID]*routerState),
		filter:          t.DVMRPLinks(),
		nbrGen:          1,
	}
}

// Stats returns a copy of the protocol counters.
func (c *Cloud) Stats() Stats { return c.stats }

// InvalidateNeighbors discards cached adjacency lists; callers that change
// link state or cloud membership outside Tick may call it, though Tick
// also refreshes the caches itself.
func (c *Cloud) InvalidateNeighbors() { c.nbrGen++ }

// EnsureRouter registers id as a DVMRP speaker. Registering twice is a
// no-op.
func (c *Cloud) EnsureRouter(id topo.NodeID) {
	if _, ok := c.routers[id]; ok {
		return
	}
	c.routers[id] = &routerState{
		id:       id,
		origin:   make(map[pkey]int),
		table:    make(map[pkey]*Route),
		nbr:      make(map[topo.NodeID]*neighborView),
		pending:  make(map[topo.NodeID]map[pkey]struct{}),
		holddown: make(map[pkey]time.Time),
	}
	c.nbrGen++
}

// HasRouter reports whether id participates in the cloud.
func (c *Cloud) HasRouter(id topo.NodeID) bool {
	_, ok := c.routers[id]
	return ok
}

// RemoveRouter withdraws a router from the cloud (a domain migrating to
// native multicast). Its neighbors drop everything learned from it.
func (c *Cloud) RemoveRouter(id topo.NodeID, now time.Time) {
	if _, ok := c.routers[id]; !ok {
		return
	}
	delete(c.routers, id)
	c.nbrGen++
	for _, ns := range c.routers {
		if _, had := ns.nbr[id]; had {
			c.neighborDown(ns, id, now)
		}
	}
}

// Originate adds locally originated prefixes with the given metric
// (0 = directly connected). Changes propagate at the next Tick.
func (c *Cloud) Originate(id topo.NodeID, now time.Time, metric int, prefixes ...addr.Prefix) {
	rs := c.routers[id]
	if rs == nil {
		return
	}
	for _, p := range prefixes {
		k := pack(p)
		if old, ok := rs.origin[k]; ok && old == metric {
			continue
		}
		rs.origin[k] = metric
		c.recompute(rs, k, now)
	}
}

// Withdraw removes locally originated prefixes.
func (c *Cloud) Withdraw(id topo.NodeID, now time.Time, prefixes ...addr.Prefix) {
	rs := c.routers[id]
	if rs == nil {
		return
	}
	for _, p := range prefixes {
		k := pack(p)
		if _, ok := rs.origin[k]; !ok {
			continue
		}
		delete(rs.origin, k)
		c.recompute(rs, k, now)
	}
}

// Origins returns the prefixes router id currently originates.
func (c *Cloud) Origins(id topo.NodeID) []addr.Prefix {
	rs := c.routers[id]
	if rs == nil {
		return nil
	}
	out := make([]addr.Prefix, 0, len(rs.origin))
	for k := range rs.origin {
		out = append(out, k.unpack())
	}
	addr.SortPrefixes(out)
	return out
}

// Restart models a router restart (mrouted crash/upgrade): the router
// flushes all learned state and bumps its generation ID, prompting
// neighbors to resync; neighbors also flush what they learned from it.
func (c *Cloud) Restart(id topo.NodeID, now time.Time) {
	rs := c.routers[id]
	if rs == nil {
		return
	}
	rs.genID++
	for k, r := range rs.table {
		if r.Via != SelfOrigin {
			delete(rs.table, k)
			c.stats.RouteChanges++
		}
	}
	rs.nbr = make(map[topo.NodeID]*neighborView)
	rs.pending = make(map[topo.NodeID]map[pkey]struct{})
	rs.holddown = make(map[pkey]time.Time)
	for _, ns := range c.routers {
		if ns.id == id {
			continue
		}
		if _, had := ns.nbr[id]; had {
			c.neighborDown(ns, id, now)
		}
	}
}

// Table returns the router's routing table sorted by prefix. The returned
// routes are copies.
func (c *Cloud) Table(id topo.NodeID) []Route {
	rs := c.routers[id]
	if rs == nil {
		return nil
	}
	out := make([]Route, 0, len(rs.table))
	for _, r := range rs.table {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

// RouteCount returns the size of the router's routing table.
func (c *Cloud) RouteCount(id topo.NodeID) int {
	rs := c.routers[id]
	if rs == nil {
		return 0
	}
	return len(rs.table)
}

// Lookup returns the route for the longest matching prefix covering ip,
// and whether one exists. This is the RPF lookup used when building
// distribution trees.
func (c *Cloud) Lookup(id topo.NodeID, ip addr.IP) (Route, bool) {
	rs := c.routers[id]
	if rs == nil {
		return Route{}, false
	}
	var best *Route
	for _, r := range rs.table {
		if r.Prefix.Contains(ip) && (best == nil || r.Prefix.Len > best.Prefix.Len) {
			best = r
		}
	}
	if best == nil {
		return Route{}, false
	}
	return *best, true
}

// Neighbors returns the adjacent cloud routers of id over up DVMRP links,
// sorted — what mrinfo reports for a router's multicast interfaces.
func (c *Cloud) Neighbors(id topo.NodeID) []topo.NodeID {
	rs := c.routers[id]
	if rs == nil {
		return nil
	}
	out := append([]topo.NodeID(nil), c.neighbors(rs)...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// neighbors returns the adjacent cloud routers of rs over up DVMRP links,
// cached per neighbor-generation.
func (c *Cloud) neighbors(rs *routerState) []topo.NodeID {
	if rs.nbrGen == c.nbrGen && rs.nbrList != nil {
		return rs.nbrList
	}
	ids := c.topo.Neighbors(rs.id, c.filter)
	out := ids[:0]
	for _, id := range ids {
		if _, ok := c.routers[id]; ok {
			out = append(out, id)
		}
	}
	rs.nbrList = out
	rs.nbrGen = c.nbrGen
	return out
}

// advertisedRoute returns the metric rs advertises toward neighbor n for a
// route it holds, applying poison reverse. unreachable means "withdrawn".
func advertisedRoute(r *Route, n topo.NodeID) int {
	if r == nil || r.Metric >= Infinity || r.Via == n {
		return unreachable
	}
	return r.Metric
}

// markPending records that rs's advertisement of k changed for every
// current neighbor.
func (c *Cloud) markPending(rs *routerState, k pkey) {
	for _, n := range c.neighbors(rs) {
		set := rs.pending[n]
		if set == nil {
			set = make(map[pkey]struct{})
			rs.pending[n] = set
		}
		set[k] = struct{}{}
	}
}

// recompute re-evaluates rs's best route to k and, if it changed, updates
// the table and queues advertisements. Routes that worsen are placed in
// hold-down — deleted and not reinstalled until the hold-down expires —
// which breaks the count-to-infinity episodes a poisoned distance vector
// otherwise runs through meshy topologies.
func (c *Cloud) recompute(rs *routerState, k pkey, now time.Time) {
	best := unreachable
	via := SelfOrigin
	origin := false
	if m, ok := rs.origin[k]; ok {
		best, via, origin = m, SelfOrigin, true
	}
	// Locally originated routes bypass hold-down (re-origination after a
	// flap must take effect immediately).
	if !origin {
		if until, held := rs.holddown[k]; held {
			if now.Before(until) {
				if _, exists := rs.table[k]; exists {
					delete(rs.table, k)
					c.stats.RouteChanges++
					c.markPending(rs, k)
				}
				return
			}
			delete(rs.holddown, k)
		}
	} else {
		delete(rs.holddown, k)
	}
	for n, nv := range rs.nbr {
		adv, ok := nv.vector[k]
		if !ok {
			continue
		}
		m := adv + 1
		if m >= Infinity {
			continue
		}
		if m < best || (m == best && via != SelfOrigin && n < via) {
			best, via = m, n
		}
	}
	cur, exists := rs.table[k]
	switch {
	case best >= Infinity && exists:
		delete(rs.table, k)
		rs.holddown[k] = now.Add(c.holdDur)
		c.stats.RouteChanges++
		c.stats.HoldDowns++
		c.markPending(rs, k)
	case best < Infinity && !exists:
		rs.table[k] = &Route{Prefix: k.unpack(), Metric: best, Via: via, Since: now, LastChange: now}
		c.stats.RouteChanges++
		c.markPending(rs, k)
	case best < Infinity && exists && best > cur.Metric && !origin:
		// Worse news: hold the route down instead of chasing possibly
		// stale alternatives upward metric by metric.
		delete(rs.table, k)
		rs.holddown[k] = now.Add(c.holdDur)
		c.stats.RouteChanges++
		c.stats.HoldDowns++
		c.markPending(rs, k)
	case best < Infinity && exists && (cur.Metric != best || cur.Via != via):
		cur.Metric = best
		cur.Via = via
		cur.LastChange = now
		c.stats.RouteChanges++
		c.markPending(rs, k)
	}
}

// releaseHolddowns recomputes routes whose hold-down has expired.
func (c *Cloud) releaseHolddowns(rs *routerState, now time.Time) {
	for k, until := range rs.holddown {
		if !now.Before(until) {
			c.recompute(rs, k, now)
		}
	}
}

// neighborDown flushes everything rs learned from neighbor n.
func (c *Cloud) neighborDown(rs *routerState, n topo.NodeID, now time.Time) {
	nv := rs.nbr[n]
	if nv == nil {
		return
	}
	delete(rs.nbr, n)
	delete(rs.pending, n)
	for k := range nv.vector {
		c.recompute(rs, k, now)
	}
}

// applyAdv installs one advertised metric into the receiver's view of the
// sender and recomputes on change.
func (c *Cloud) applyAdv(receiver *routerState, nv *neighborView, k pkey, adv int, now time.Time) {
	old, had := nv.vector[k]
	if adv >= Infinity {
		if had {
			delete(nv.vector, k)
			c.recompute(receiver, k, now)
		}
		return
	}
	if !had || old != adv {
		nv.vector[k] = adv
		c.recompute(receiver, k, now)
	}
}

// deliverFull applies a full-table update from sender to receiver,
// flushing entries the sender no longer advertises.
func (c *Cloud) deliverFull(sender, receiver *routerState, now time.Time) {
	nv := receiver.nbr[sender.id]
	if nv == nil {
		nv = &neighborView{vector: make(map[pkey]int)}
		receiver.nbr[sender.id] = nv
	}
	nv.lastHeard = now
	for k, r := range sender.table {
		c.applyAdv(receiver, nv, k, advertisedRoute(r, receiver.id), now)
	}
	for k := range nv.vector {
		if _, ok := sender.table[k]; !ok {
			delete(nv.vector, k)
			c.recompute(receiver, k, now)
		}
	}
	nv.needFull = false
}

// deliverDelta applies a delta update covering the given prefixes.
func (c *Cloud) deliverDelta(sender, receiver *routerState, prefixes map[pkey]struct{}, now time.Time) {
	nv := receiver.nbr[sender.id]
	if nv == nil {
		return
	}
	for k := range prefixes {
		c.applyAdv(receiver, nv, k, advertisedRoute(sender.table[k], receiver.id), now)
	}
}

// Tick runs one protocol interval at virtual time now: neighbor expiry,
// one lossy periodic update exchange, then flash-update convergence
// rounds (also lossy; DVMRP does not retransmit flash updates).
func (c *Cloud) Tick(now time.Time) {
	c.tick++
	c.nbrGen++ // refresh neighbor caches against current link state

	// Stable iteration order over routers.
	ids := make([]topo.NodeID, 0, len(c.routers))
	for id := range c.routers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// 1. Release expired hold-downs, expire silent neighbors, and drop
	// adjacencies over down links.
	for _, id := range ids {
		rs := c.routers[id]
		c.releaseHolddowns(rs, now)
		live := make(map[topo.NodeID]bool)
		for _, n := range c.neighbors(rs) {
			live[n] = true
		}
		for n, nv := range rs.nbr {
			if !live[n] {
				c.neighborDown(rs, n, now)
				continue
			}
			if !nv.lastHeard.IsZero() && now.Sub(nv.lastHeard) > c.NeighborTimeout {
				c.stats.NeighborExpiries++
				c.neighborDown(rs, n, now)
				// The neighbor will resync us on its next update.
				rs.nbr[n] = &neighborView{vector: make(map[pkey]int), needFull: true, lastHeard: now}
			}
		}
	}

	// 2. Periodic update exchange, subject to link loss.
	type dir struct{ from, to topo.NodeID }
	var order []dir
	lossOf := make(map[dir]float64)
	for _, id := range ids {
		for _, l := range c.topo.LinksOf(id) {
			if !l.Up || !c.filter(l) {
				continue
			}
			other := l.Other(id).Router
			if _, ok := c.routers[other]; !ok {
				continue
			}
			d := dir{from: id, to: other}
			order = append(order, d)
			lossOf[d] = l.LossProb
		}
	}
	for _, d := range order {
		sender, receiver := c.routers[d.from], c.routers[d.to]
		c.stats.UpdatesSent++
		nv := receiver.nbr[d.from]
		needFull := nv == nil || nv.needFull || nv.lastHeard.IsZero() ||
			(uint64(d.from)*31+uint64(d.to)*17+c.tick)%c.FullSyncEvery == 0
		if c.rng.Bool(lossOf[d]) {
			// DVMRP updates are unacknowledged: a lost update is simply
			// gone; staleness persists until the next full sync.
			c.stats.UpdatesLost++
			delete(sender.pending, d.to)
			continue
		}
		if needFull {
			c.stats.FullSyncs++
			c.deliverFull(sender, receiver, now)
			delete(sender.pending, d.to)
			continue
		}
		nv.lastHeard = now
		if pend := sender.pending[d.to]; len(pend) > 0 {
			c.deliverDelta(sender, receiver, pend, now)
			delete(sender.pending, d.to)
		}
	}

	// 3. Flash-update convergence: flush pending deltas until quiescent.
	// Flash updates cross lossy links too, and a lost one is not
	// retransmitted — the receiver stays stale until a full sync.
	for round := 0; round < 64; round++ {
		moved := false
		for _, id := range ids {
			rs := c.routers[id]
			if len(rs.pending) == 0 {
				continue
			}
			for _, n := range c.neighbors(rs) {
				pend := rs.pending[n]
				if len(pend) == 0 {
					continue
				}
				receiver := c.routers[n]
				if nv := receiver.nbr[id]; nv == nil || nv.lastHeard.IsZero() {
					// No adjacency yet; wait for the periodic sync.
					continue
				}
				delete(rs.pending, n)
				moved = true
				if c.rng.Bool(lossOf[dir{from: id, to: n}]) {
					c.stats.UpdatesLost++
					continue
				}
				c.deliverDelta(rs, receiver, pend, now)
			}
		}
		if !moved {
			break
		}
		c.stats.ConvergenceRounds++
	}
}
