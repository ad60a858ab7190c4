// The systems under test: a mantra.Monitor or a shard.Supervisor wired
// to replay dialers and to the HTTP surface an operator reads. Each
// exposes exactly the calls the harness times — one cycle, one request —
// and the public views the correctness checks read afterwards.
package main

import (
	"net/http"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/core/output"
	"repro/internal/core/process"
	"repro/internal/core/shard"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

// benchPolicy is the production collection policy with the backoff
// sleep removed (a sleep would time a constant) and the breaker kept
// out of reach, so a scripted fault has exactly its scripted outcome.
func benchPolicy() collect.Policy {
	return collect.Policy{
		BreakerThreshold: 1 << 20,
		Sleep:            func(time.Duration) {},
	}
}

// systemConfig selects how a workload's monitor is assembled.
type systemConfig struct {
	// Shards > 0 builds a shard.Supervisor with that many workers;
	// otherwise a mantra.Monitor.
	Shards int
	// Concurrent runs Monitor cycles through RunCycleConcurrent.
	Concurrent bool
	Aggregate  bool
	// ArchiveDir enables the durable archive at its default checkpoint
	// cadence, every append fsynced.
	ArchiveDir string
}

// system is one assembled monitor plus its replay dialers.
type system struct {
	cfg     systemConfig
	targets []string
	dialers []*replayDialer
	mon     *mantra.Monitor
	sup     *shard.Supervisor
	handler http.Handler
	// lastFleet is the supervisor's latest cycle result.
	lastFleet *shard.CycleResult
}

func newSystem(cfg systemConfig, targets []string, log *sessionLog) (*system, error) {
	s := &system{cfg: cfg, targets: targets, dialers: make([]*replayDialer, len(targets))}
	var register func(collect.Target)
	if cfg.Shards > 0 {
		sup, err := shard.New(shard.Config{Shards: cfg.Shards, Policy: benchPolicy()})
		if err != nil {
			return nil, err
		}
		s.sup = sup
		register = sup.Register
		// The same wiring cmd/mantra gives the sharded daemon.
		srv := output.NewServer(sup.FleetProc())
		srv.SetShards(func() any { return sup.Status() })
		srv.SetHealth(func() any { return sup.FleetHealth() })
		srv.SetAnomalies(func() []process.Anomaly { return sup.FleetAnomalies() })
		srv.SetSeries(sup.SeriesView)
		srv.SetQuery(sup.QueryFleet)
		s.handler = srv
	} else {
		m := mantra.New()
		m.SetCollectPolicy(benchPolicy())
		if cfg.Aggregate {
			m.EnableAggregation()
		}
		if cfg.ArchiveDir != "" {
			if _, err := m.EnableArchive(mantra.ArchiveConfig{Dir: cfg.ArchiveDir, SyncEveryAppend: true}); err != nil {
				return nil, err
			}
		}
		s.mon = m
		register = m.AddTarget
		s.handler = m.Handler()
	}
	for i, name := range targets {
		s.dialers[i] = &replayDialer{target: name, log: log}
		register(collect.Target{
			Name:     name,
			Dialer:   s.dialers[i],
			Password: cliPassword,
			Prompt:   prompt(name),
			Timeout:  5 * time.Second,
		})
	}
	return s, nil
}

// load hands every dialer its sessions for the coming cycle.
func (s *system) load(in *cycleInput) {
	for i, d := range s.dialers {
		d.load(in.Cycle, in.Sessions[i])
	}
}

// runCycle is the timed call: one full monitoring cycle stamped at.
func (s *system) runCycle(at time.Time) error {
	if s.sup != nil {
		res, err := s.sup.RunCycle(at)
		s.lastFleet = res
		return err
	}
	var err error
	if s.cfg.Concurrent {
		_, err = s.mon.RunCycleConcurrent(at)
	} else {
		_, err = s.mon.RunCycle(at)
	}
	return err
}

// outcomes returns each target's status and attempt count for the
// latest cycle. The supervisor publishes status through its health
// rows; attempts are what the dialers saw.
func (s *system) outcomes() ([]collect.Status, []int) {
	status := make([]collect.Status, len(s.targets))
	attempts := make([]int, len(s.targets))
	if s.sup != nil {
		for i, h := range s.sup.FleetHealth() {
			status[i] = h.LastStatus
		}
	} else {
		for i, r := range s.mon.LastResults() {
			status[i] = r.Status
		}
	}
	for i, d := range s.dialers {
		attempts[i] = d.dialed()
	}
	return status, attempts
}

// counts returns the table sizes the system holds for target i after
// the latest cycle. A Monitor exposes the parsed snapshot; the
// supervisor exposes per-target cycle statistics, which carry the
// route, SA-cache and MBGP sizes but not the pair count (reported -1).
func (s *system) counts(i int) (tableCounts, bool) {
	name := s.targets[i]
	if s.sup != nil {
		for _, st := range s.lastFleet.Stats {
			if st.Target == name {
				return tableCounts{Routes: st.Routes, Pairs: -1, SAs: st.SACache, MBGP: st.MBGPRoutes}, true
			}
		}
		return tableCounts{}, false
	}
	sn := s.mon.Latest(name)
	if sn == nil {
		return tableCounts{}, false
	}
	return tableCounts{Routes: len(sn.Routes), Pairs: len(sn.Pairs), SAs: len(sn.SAs), MBGP: len(sn.MBGP)}, true
}

// series returns a target's hot series for metric, nil when unseen.
func (s *system) series(target string, m process.Metric) *process.Series {
	if s.sup != nil {
		return s.sup.SeriesView(target, m)
	}
	return s.mon.Series(target, m)
}

// anomalies returns the system-wide anomaly log.
func (s *system) anomalies() []process.Anomaly {
	if s.sup != nil {
		return s.sup.FleetAnomalies()
	}
	return s.mon.Anomalies()
}

// mergedView returns the combined snapshot the system publishes: the
// fleet view, the aggregate view, or nil when it keeps none.
func (s *system) mergedView() *tables.Snapshot {
	if s.sup != nil {
		return s.sup.Merged()
	}
	if s.cfg.Aggregate {
		return s.mon.Latest(mantra.AggregateTarget)
	}
	return nil
}

// viewTarget names the synthetic target the merged series live under,
// or the first real target when the system keeps no merged view.
func (s *system) viewTarget() string {
	switch {
	case s.sup != nil:
		return shard.FleetTarget
	case s.cfg.Aggregate:
		return mantra.AggregateTarget
	}
	return s.targets[0]
}

// hasTables reports whether the system publishes summary tables; the
// sharded path's publish stage registers none.
func (s *system) hasTables() bool { return s.mon != nil }

// discard releases a system the run no longer needs: the supervisor's
// workers are stopped, a Monitor's archive is closed. (The crash the
// durable workload stages happens before this, by copying the archive
// directory out from under the live monitor.)
func (s *system) discard() error {
	if s.sup != nil {
		return s.sup.Close()
	}
	if s.cfg.ArchiveDir != "" {
		return s.mon.CloseArchive(sim.Epoch)
	}
	return nil
}
