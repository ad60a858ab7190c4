// The four workloads. Each exists to stress layers the others bypass;
// README.md gives the reasoning at length.
package main

import (
	"fmt"
	"path/filepath"
	"time"

	mantra "repro"
	"repro/internal/addr"
	"repro/internal/core/process"
	"repro/internal/core/shard"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

// refSeconds is the run length the cycle and request counts below are
// sized for: on the 2-core reference box the timed regions of a run add
// up to about this many seconds (half that on sparse-fleet, whose
// simulator costs twice what its monitor does). --seconds scales the
// counts in proportion. The counts are never time-boxed: what a cycle
// costs depends on how much history precedes it, so two runs are
// comparable only if they run the same cycles.
const refSeconds = 20

// spec describes one set of inputs and the system that consumes it.
type spec struct {
	Name string
	Why  string
	// Cycles and Reads are the timed monitoring cycles and HTTP requests
	// of a refSeconds run; the requests are issued in equal batches, one
	// after each cycle. Only read-mix has any.
	Cycles, Reads int
	// build makes the substrate, the system under test and everything
	// the checks need; dir is a scratch directory the rig may write to.
	build func(seed int64, cycles int, dir string, log *sessionLog) (*rig, error)
}

// rig is one built, warmed-up instance of a workload.
type rig struct {
	sub *substrate
	sys *system
	// refCfg assembles the serial reference the traced run reconciles
	// against; walkCfg shapes the layer walk.
	refCfg  systemConfig
	walkCfg walkConfig
	// preload, when set, gives a system the history the workload starts
	// from.
	preload func(s *system)

	incidents []scheduledIncident
	truth     truth
	// historyFrom is the first stored instant; step the cycle interval.
	historyFrom time.Time
	step        time.Duration
	// first is the first timed cycle's input, rendered during set-up.
	first *cycleInput
}

var workloads = []spec{
	{
		Name:   "dvmrp-fleet",
		Why:    "2-shard supervisor over 22 routers whose dumps are one ~4k-prefix DVMRP table each: session read, route parse, stability and per-cycle state export dominate",
		Cycles: 120,
		build: func(_ int64, _ int, _ string, log *sessionLog) (*rig, error) {
			sub, err := buildDVMRPFleet(20, 40, 2)
			if err != nil {
				return nil, err
			}
			return fleetRig(sub, log)
		},
	},
	{
		Name:   "sparse-fleet",
		Why:    "same supervisor over 20 RPs and borders of a fully native internet: (S,G), MSDP SA and MBGP parsers and pair-delta churn, with an empty DVMRP table that bypasses the route path",
		Cycles: 120,
		build: func(_ int64, _ int, _ string, log *sessionLog) (*rig, error) {
			sub, err := buildSparseFleet(16, 24)
			if err != nil {
				return nil, err
			}
			return fleetRig(sub, log)
		},
	},
	{
		Name:   "durable-incidents",
		Why:    "unsharded Monitor with aggregation and an fsync-per-append archive, small dumps, scripted incidents and session faults, then crash recovery: WAL, checkpoints, detectors and retries instead of parsing",
		Cycles: 360,
		build: func(seed int64, cycles int, dir string, log *sessionLog) (*rig, error) {
			sub, plan, err := buildIncidentNet(seed, cycles)
			if err != nil {
				return nil, err
			}
			cfg := systemConfig{Concurrent: true, Aggregate: true, ArchiveDir: filepath.Join(dir, "archive")}
			sys, err := newSystem(cfg, sub.targets, log)
			if err != nil {
				return nil, err
			}
			return &rig{
				sub: sub, sys: sys, incidents: plan,
				refCfg: systemConfig{Aggregate: true, ArchiveDir: filepath.Join(dir, "archive-ref")},
				walkCfg: walkConfig{
					Summary: true, Merged: mantra.AggregateTarget, MergedLogged: true,
					ArchiveDir: filepath.Join(dir, "archive-walk"), CheckpointEvery: 12,
				},
			}, nil
		},
	},
	{
		Name:   "read-mix",
		Why:    "one closed-loop HTTP client against six months of pre-loaded history on 24 targets, 250 requests after each of the small cycles that keep appending: the read side of tsdb and output, which no cycle workload touches",
		Cycles: 240, Reads: 60000,
		build: func(seed int64, _ int, _ string, log *sessionLog) (*rig, error) {
			sub, err := buildReadMixNet(2)
			if err != nil {
				return nil, err
			}
			sys, err := newSystem(systemConfig{}, sub.targets, log)
			if err != nil {
				return nil, err
			}
			r := &rig{sub: sub, sys: sys, walkCfg: walkConfig{Summary: true}}
			r.step = 30 * time.Minute
			r.historyFrom = sim.Epoch.Add(-preloadCycles * r.step)
			r.truth = make(truth)
			r.preload = func(s *system) { preloadHistory(s, seed, r.historyFrom, r.step, nil) }
			preloadHistory(sys, seed, r.historyFrom, r.step, r.truth)
			return r, nil
		},
	},
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// fleetRig puts a 2-shard supervisor over a fleet substrate; the
// reference is the same supervisor at one shard.
func fleetRig(sub *substrate, log *sessionLog) (*rig, error) {
	sys, err := newSystem(systemConfig{Shards: 2}, sub.targets, log)
	if err != nil {
		return nil, err
	}
	return &rig{
		sub: sub, sys: sys,
		refCfg:  systemConfig{Shards: 1},
		walkCfg: walkConfig{Exports: true, Merged: shard.FleetTarget},
	}, nil
}

// preloadCycles is six months at the paper's 30-minute cadence, nudged
// so that every series' head is 60 points short of sealing its next
// block: the timed cycles then seal one block per series under the
// readers.
const preloadCycles = 34*256 + 196

// preloadHistory ingests preloadCycles small synthetic snapshots per
// target through the processor, the way a long-running daemon would
// have accumulated them. The values wander inside bands no default
// detector fires on. Points of the truth metrics are recorded in tr
// when it is non-nil.
func preloadHistory(s *system, seed int64, from time.Time, step time.Duration, tr truth) {
	rng := newPRNG(seed ^ 0x9e37)
	routes := make(tables.RouteTable, 8)
	for i := range routes {
		routes[i] = tables.RouteEntry{Prefix: addr.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i)), Metric: 1 + i}
	}
	pairs := make(tables.PairTable, 6)
	for i := range pairs {
		pairs[i] = tables.PairEntry{Source: addr.V4(10, 0, 0, byte(1+i)), Group: addr.V4(224, 2, 0, byte(1+i%3)), Flags: "D", RateKbps: float64(2 + 3*i)}
	}
	sas := make([]tables.SAEntry, 10)
	mbgp := make([]tables.MBGPEntry, 6)
	p := s.mon.Processor()
	for c := 0; c < preloadCycles; c++ {
		at := from.Add(time.Duration(c) * step)
		for _, name := range s.targets {
			sn := &tables.Snapshot{
				Target: name, At: at,
				Routes: routes[:4+rng.Intn(5)],
				Pairs:  pairs[:2+rng.Intn(5)],
				SAs:    sas[:7+rng.Intn(4)],
				MBGP:   mbgp[:2+rng.Intn(5)],
			}
			p.Ingest(sn)
			if tr != nil {
				tr.add(name, process.MetricRoutes, at, float64(len(sn.Routes)))
				tr.add(name, process.MetricSACache, at, float64(len(sn.SAs)))
				tr.add(name, process.MetricMBGPRoutes, at, float64(len(sn.MBGP)))
			}
		}
	}
}
