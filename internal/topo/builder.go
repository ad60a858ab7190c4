package topo

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/sim"
)

// InternetConfig parameterizes BuildInternet.
type InternetConfig struct {
	// NumDomains is the number of leaf domains besides UCSB.
	NumDomains int
	// RoutersPerDomain is the number of internal routers per domain in
	// addition to the border.
	RoutersPerDomain int
	// MinSubnets and MaxSubnets bound the number of prefixes a domain
	// originates. The 1998 MBone carried thousands of DVMRP routes from
	// a few hundred tunnels because domains advertised subnets rather
	// than aggregates.
	MinSubnets, MaxSubnets int
	// AggregateFraction is the fraction of domains whose border
	// aggregates before advertising — inconsistent aggregation is one
	// divergence source the paper observes.
	AggregateFraction float64
	// PIMDMFraction is the fraction of domains whose interior routers
	// run PIM-DM (dense-mode data plane, no DVMRP route table) behind a
	// DVMRP border — the common Cisco campus arrangement of the era.
	PIMDMFraction float64
	// TunnelLoss is the control-message loss probability on DVMRP
	// tunnels; NativeLoss on native links.
	TunnelLoss, NativeLoss float64
	// Seed drives the deterministic layout choices.
	Seed int64
	// LoopbackPool overrides the router-loopback address pool. The zero
	// value keeps the historical 198.32.255.0/24, which caps a topology
	// at ~250 routers; fleet-scale experiments (thousands of routers)
	// supply a /16 so the builder does not exhaust it.
	LoopbackPool addr.Prefix
}

// DefaultInternetConfig returns the configuration used by the paper-scale
// experiments: route tables in the low thousands, two dozen domains.
func DefaultInternetConfig() InternetConfig {
	return InternetConfig{
		NumDomains:        24,
		RoutersPerDomain:  2,
		MinSubnets:        60,
		MaxSubnets:        240,
		AggregateFraction: 0.25,
		PIMDMFraction:     0.25,
		TunnelLoss:        0.03,
		NativeLoss:        0.0005,
		Seed:              1998,
	}
}

// ScaleInternetConfig returns a fleet-scale configuration: numDomains
// leaf domains of routersPerDomain+1 routers each, PIM-DM interiors
// behind DVMRP borders (so the DVMRP cloud holds only the borders and
// per-cycle cost stays proportional to the monitored set, not the
// router count), and a /16 loopback pool so the builder can address
// thousands of routers. The bench/ harness's fleet workloads build on
// it.
func ScaleInternetConfig(numDomains, routersPerDomain int) InternetConfig {
	cfg := DefaultInternetConfig()
	cfg.NumDomains = numDomains
	cfg.RoutersPerDomain = routersPerDomain
	cfg.MinSubnets = 180
	cfg.MaxSubnets = 220
	cfg.PIMDMFraction = 1.0
	cfg.LoopbackPool = addr.MustParsePrefix("172.16.0.0/16")
	return cfg
}

// Internet is the constructed multi-domain topology with the well-known
// routers the experiments monitor.
type Internet struct {
	Topo *Topology
	// FIXW is the Federal IntereXchange-West router: the MBone core
	// router pre-transition, a DVMRP border afterwards.
	FIXW *Router
	// NativeCores are the exchange routers of the native infrastructure
	// (alive but idle until domains transition).
	NativeCores []*Router
	// UCSB is the campus mrouted the paper's second dataset comes from.
	UCSB *Router
	// UCSBGateway is the campus border connected to FIXW by tunnel.
	UCSBGateway *Router
	// NativeLinks[d] are the (initially down) native links that come up
	// when domain d transitions; TunnelLinks[d] the tunnel that goes
	// down.
	NativeLinks map[string][]*Link
	TunnelLinks map[string]*Link
}

// BuildInternet constructs the paper's internetwork: FIXW at the center of
// a DVMRP tunnel mesh, a UCSB campus domain, N other leaf domains, and a
// dormant native core that domains migrate onto during the transition.
func BuildInternet(cfg InternetConfig) *Internet {
	rng := sim.NewRNG(cfg.Seed)
	t := New()
	inet := &Internet{
		Topo:        t,
		NativeLinks: make(map[string][]*Link),
		TunnelLinks: make(map[string]*Link),
	}

	transfer := addr.NewAllocator(addr.MustParsePrefix("198.32.0.0/16"))
	loopPool := cfg.LoopbackPool
	if loopPool == (addr.Prefix{}) {
		loopPool = addr.MustParsePrefix("198.32.255.0/24")
	}
	loop := addr.NewAllocator(loopPool)

	// Exchange points.
	inet.FIXW = t.AddRouter("fixw", "", ModeDVMRP, loop.MustNext())
	inet.FIXW.Core = true
	for i := 0; i < 2; i++ {
		c := t.AddRouter(fmt.Sprintf("nexch%d", i+1), "", ModePIMSM, loop.MustNext())
		c.Core = true
		c.RP = true // native exchanges host RPs for interdomain MSDP
		inet.NativeCores = append(inet.NativeCores, c)
	}
	// Native core mesh: FIXW peers with both native exchanges, and they
	// peer with each other. These links carry no multicast until the
	// transition begins.
	for i, c := range inet.NativeCores {
		t.Connect(inet.FIXW.ID, c.ID, transfer.MustNext(), transfer.MustNext(), false, cfg.NativeLoss, 45000)
		if i == 1 {
			t.Connect(inet.NativeCores[0].ID, c.ID, transfer.MustNext(), transfer.MustNext(), false, cfg.NativeLoss, 45000)
		}
	}

	// UCSB campus: a domain that never transitions (mrouted until the end).
	buildDomain(t, inet, domainSpec{
		name: "ucsb", asn: 131, base: addr.MustParsePrefix("128.111.0.0/16"),
		internals: 2, subnets: 48, aggregate: false,
		tunnelLoss: cfg.TunnelLoss, nativeLoss: cfg.NativeLoss,
		transfer: transfer, loop: loop,
	})
	ucsbDomain := t.Domain("ucsb")
	inet.UCSBGateway = t.Router(ucsbDomain.Border())
	inet.UCSB = t.Router(ucsbDomain.Routers[1])

	// Leaf domains. Address space: 10.d.0.0/16 equivalents spread across
	// classful space for variety.
	for d := 0; d < cfg.NumDomains; d++ {
		base := addr.PrefixFrom(addr.V4(byte(140+d/8), byte(10+d*9%200), 0, 0), 16)
		subnets := cfg.MinSubnets
		if cfg.MaxSubnets > cfg.MinSubnets {
			subnets += rng.Intn(cfg.MaxSubnets - cfg.MinSubnets)
		}
		buildDomain(t, inet, domainSpec{
			name: fmt.Sprintf("dom%02d", d), asn: uint16(7000 + d),
			base: base, internals: cfg.RoutersPerDomain,
			subnets:    subnets,
			aggregate:  rng.Bool(cfg.AggregateFraction),
			pimdm:      rng.Bool(cfg.PIMDMFraction),
			tunnelLoss: cfg.TunnelLoss, nativeLoss: cfg.NativeLoss,
			transfer: transfer, loop: loop,
		})
	}

	// A few domain-to-domain tunnels enrich the DVMRP mesh so FIXW is not
	// a strict star center (the MBone was an ad-hoc mesh).
	domains := t.Domains()
	for i := 0; i+3 < len(domains); i += 4 {
		a, b := domains[i], domains[i+3]
		if a.Name == "ucsb" || b.Name == "ucsb" {
			continue
		}
		t.Connect(a.Border(), b.Border(), transfer.MustNext(), transfer.MustNext(), true, cfg.TunnelLoss, 1500)
	}
	return inet
}

type domainSpec struct {
	name                   string
	asn                    uint16
	base                   addr.Prefix
	internals              int
	subnets                int
	aggregate              bool
	pimdm                  bool
	tunnelLoss, nativeLoss float64
	transfer, loop         *addr.Allocator
}

// buildDomain creates one domain: a border router tunneled to FIXW (and
// pre-provisioned down native links to the native cores), internal routers
// in a star, and the domain's originated subnets.
func buildDomain(t *Topology, inet *Internet, spec domainSpec) {
	// Subnet list the domain originates: consecutive /24s out of base.
	var prefixes []addr.Prefix
	for s := 0; s < spec.subnets; s++ {
		sub := addr.PrefixFrom(spec.base.Addr+addr.IP(s<<8), 24)
		prefixes = append(prefixes, sub)
	}
	t.AddDomain(spec.name, spec.asn, ModeDVMRP, prefixes, spec.aggregate)

	border := t.AddRouter(spec.name+"-gw", spec.name, ModeDVMRP, spec.loop.MustNext())
	border.LeafPrefixes = prefixes[:1]
	interiorMode := ModeDVMRP
	if spec.pimdm {
		interiorMode = ModePIMDM
	}
	for i := 0; i < spec.internals; i++ {
		r := t.AddRouter(fmt.Sprintf("%s-r%d", spec.name, i+1), spec.name, interiorMode, spec.loop.MustNext())
		// Each internal router attaches a couple of host subnets.
		lo := 1 + i*2
		hi := lo + 2
		if hi > len(prefixes) {
			hi = len(prefixes)
		}
		if lo < len(prefixes) {
			r.LeafPrefixes = prefixes[lo:hi]
		}
		t.Connect(border.ID, r.ID, spec.transfer.MustNext(), spec.transfer.MustNext(), false, 0.0001, 10000)
	}

	// Tunnel to FIXW (the MBone attachment).
	tun := t.Connect(border.ID, inet.FIXW.ID, spec.transfer.MustNext(), spec.transfer.MustNext(), true, spec.tunnelLoss, 1500)
	inet.TunnelLinks[spec.name] = tun

	// Pre-provisioned native links to the native cores, initially down.
	for i, c := range inet.NativeCores {
		if i == 1 && len(spec.name)%2 == 0 {
			continue // some domains single-home
		}
		nl := t.Connect(border.ID, c.ID, spec.transfer.MustNext(), spec.transfer.MustNext(), false, spec.nativeLoss, 45000)
		nl.Up = false
		inet.NativeLinks[spec.name] = append(inet.NativeLinks[spec.name], nl)
	}
}

// TransitionDomain migrates a domain to native sparse mode: its routers
// switch to PIM-SM (border gains the RP role), the FIXW tunnel comes down,
// and the native links come up. FIXW itself becomes a border router the
// first time this happens.
func (in *Internet) TransitionDomain(name string) {
	d := in.Topo.Domain(name)
	if d == nil || d.Mode != ModeDVMRP {
		return
	}
	d.Mode = ModePIMSM
	for i, id := range d.Routers {
		r := in.Topo.Router(id)
		r.Mode = ModePIMSM
		if i == 0 {
			r.RP = true
		}
	}
	if tun := in.TunnelLinks[name]; tun != nil {
		tun.Up = false
	}
	for _, nl := range in.NativeLinks[name] {
		nl.Up = true
	}
	if in.FIXW.Mode != ModeBorder {
		in.FIXW.Mode = ModeBorder
	}
}

// CampusConfig parameterizes BuildCampus.
type CampusConfig struct {
	// Name prefixes the router names; Base is the campus address block.
	Name string
	Base addr.Prefix
	// Internal is the number of internal routers; Subnets the number of
	// originated prefixes.
	Internal, Subnets int
}

// BuildCampus constructs a standalone campus network (the quickstart
// scenario): one gateway plus internal routers, all DVMRP.
func BuildCampus(cfg CampusConfig) *Topology {
	if cfg.Name == "" {
		cfg.Name = "campus"
	}
	if cfg.Internal <= 0 {
		cfg.Internal = 2
	}
	if cfg.Subnets <= 0 {
		cfg.Subnets = 8
	}
	t := New()
	transfer := addr.NewAllocator(addr.MustParsePrefix("192.168.0.0/20"))
	loop := addr.NewAllocator(addr.MustParsePrefix("192.168.255.0/24"))
	var prefixes []addr.Prefix
	for s := 0; s < cfg.Subnets; s++ {
		prefixes = append(prefixes, addr.PrefixFrom(cfg.Base.Addr+addr.IP(s<<8), 24))
	}
	t.AddDomain(cfg.Name, 64512, ModeDVMRP, prefixes, false)
	gw := t.AddRouter(cfg.Name+"-gw", cfg.Name, ModeDVMRP, loop.MustNext())
	gw.LeafPrefixes = prefixes[:1]
	for i := 0; i < cfg.Internal; i++ {
		r := t.AddRouter(fmt.Sprintf("%s-r%d", cfg.Name, i+1), cfg.Name, ModeDVMRP, loop.MustNext())
		lo := 1 + i*2
		hi := lo + 2
		if hi > len(prefixes) {
			hi = len(prefixes)
		}
		if lo < len(prefixes) {
			r.LeafPrefixes = prefixes[lo:hi]
		}
		t.Connect(gw.ID, r.ID, transfer.MustNext(), transfer.MustNext(), false, 0.0001, 10000)
	}
	return t
}
