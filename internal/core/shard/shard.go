// Package shard implements fault-tolerant sharded collection: a
// supervisor consistent-hash-assigns the registered targets across N
// shard workers, each a cycle.Core — the collector, delta logger,
// processor, stage wiring and WAL commit the unsharded Monitor also
// runs, with an optional per-shard WAL — plus supervision, and a fan-in
// tier merges the per-shard results into one fleet view.
//
// Robustness is the point. Failure detection is heartbeat-based on the
// injected cycle timeline — a worker whose goroutine exited (crash) or
// whose last completed cycle is older than the heartbeat timeout
// (wedge) is declared dead at the next cycle boundary, never from a
// wall clock. A dead worker's targets hand off to the survivors:
// each moved target resumes from the shard checkpoint — WAL/delta
// chain, health ledger, breaker position, route-stability tracker and
// open anomaly episodes all transfer through the per-target
// export/import seams — with explicit gap markers covering the cycles
// the fleet was blind to. Restarts are supervised with bounded
// exponential backoff; a restored shard steals its ring ranges back
// (failback) through the same live transfer, with no blind window.
//
// The determinism contract extends to the fleet: collection is
// target-local and the fan-in (tables.MergeSnapshots, sorted fleet
// anomaly log, sorted status views) is order-independent, so a fixed
// target set and seed produces byte-identical merged output and
// anomaly log at 1, 4 or 16 shards.
package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"sync"

	"repro/internal/core/collect"
	"repro/internal/core/cycle"
	"repro/internal/core/engine"
	"repro/internal/core/process"
	"repro/internal/core/tables"
)

// FleetTarget is the synthetic target name the merged fleet view is
// published under.
const FleetTarget = "fleet"

// handoffGapReason marks gap records covering cycles a target was blind
// during a dead shard's detection-and-handoff window.
const handoffGapReason = "shard handoff: blind cycle"

// Config parameterizes a Supervisor.
type Config struct {
	// Shards is the worker count; minimum 1.
	Shards int
	// HeartbeatTimeout declares a worker dead when its last completed
	// cycle is older than this on the cycle timeline (the `now` values
	// passed to RunCycle — never the wall clock). Zero disables
	// staleness detection; crashed workers are still caught by their
	// closed done channel.
	HeartbeatTimeout time.Duration
	// RestartBackoff is the delay before a dead worker's first restart
	// attempt, doubling per subsequent death up to MaxRestartBackoff.
	RestartBackoff    time.Duration
	MaxRestartBackoff time.Duration
	// Policy is each shard collector's resilience policy.
	Policy collect.Policy
	// Commands is the per-cycle dump set; defaults to StandardCommands.
	Commands []string
	// Concurrency is each shard's engine worker-pool bound; default 1.
	// Shards are already concurrent with one another.
	Concurrency int
	// MaxAnomalies caps each shard processor's episode ring.
	MaxAnomalies int
	// SeriesRetain bounds each shard processor's hot series rings; 0
	// keeps them unbounded. The long-horizon tsdb store retains full
	// history either way, so detection and queries are unaffected.
	SeriesRetain int
	// DataDir enables per-shard durable WALs under DataDir/shard-NN.
	DataDir         string
	SyncEveryAppend bool
	// Clock is the engines' instrumentation clock; nil means real
	// monotonic time. Simulations inject a virtual clock.
	Clock engine.Clock
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = time.Minute
	}
	if c.MaxRestartBackoff <= 0 {
		c.MaxRestartBackoff = 16 * c.RestartBackoff
	}
	if len(c.Commands) == 0 {
		c.Commands = collect.StandardCommands
	}
	if c.Concurrency < 1 {
		c.Concurrency = 1
	}
	return c
}

// ShardStatus is one worker's row in the /shards view.
type ShardStatus struct {
	Index      int       `json:"index"`
	Alive      bool      `json:"alive"`
	Generation int       `json:"generation"`
	Restarts   int       `json:"restarts"`
	Cycles     int       `json:"cycles"`
	Targets    []string  `json:"targets"`
	LastBeat   time.Time `json:"last_beat,omitzero"`
	DeadSince  time.Time `json:"dead_since,omitzero"`
	RestartAt  time.Time `json:"restart_at,omitzero"`
}

// FleetStatus is the supervisor's operator view, served at /shards.
type FleetStatus struct {
	Shards []ShardStatus `json:"shards"`
	// Assignment maps each target to its owning shard.
	Assignment map[string]int `json:"assignment"`
	// Handoffs counts dead-worker handoff and failback events;
	// TargetsMoved counts individual target moves across them.
	Handoffs         int           `json:"handoffs"`
	TargetsMoved     int           `json:"targets_moved"`
	HeartbeatTimeout time.Duration `json:"heartbeat_timeout_ns"`
	Cycle            int           `json:"cycle"`
}

// TargetHealthView is one target's fleet health row: the owning shard's
// collection ledger plus the gap count and last-success visibility that
// make handoff blind windows observable.
type TargetHealthView struct {
	collect.TargetHealth
	// Shard is the owning shard index, -1 while unassigned.
	Shard int `json:"shard"`
	// GapCount is how many cycles produced no data for this target —
	// collection failures and handoff blind windows alike.
	GapCount int `json:"gap_count"`
}

// CycleResult is one fleet cycle's outcome.
type CycleResult struct {
	At time.Time
	// Stats holds the successful targets' cycle statistics in
	// registration order.
	Stats []process.CycleStats
	// FleetStats is the merged fleet view's statistics, nil when no
	// target succeeded.
	FleetStats *process.CycleStats
	// Blind lists targets not collected at all this cycle (dead or
	// wedged shard, or no live shard to own them), sorted.
	Blind []string
	// Degraded lists targets whose collection failed normally, sorted.
	Degraded []string
	// Handoffs counts handoff events performed at this cycle boundary.
	Handoffs int
	// WALErrs carries per-shard persistence errors, if any.
	WALErrs []error
}

// ErrClosed is returned by RunCycle after Close.
var ErrClosed = errors.New("shard: supervisor closed")

// Supervisor owns the shard workers and drives fleet cycles.
//
// Register, RunCycle and Close must be called from one goroutine (the
// cycle driver), exactly like Monitor.RunCycle; the published views
// (Status, FleetAnomalies, FleetHealth, Merged, EngineStats) are safe
// from any goroutine, including while a cycle is in flight.
type Supervisor struct {
	cfg Config

	// Driver-goroutine state.
	targets    []collect.Target
	workers    []*worker
	assign     map[string]int
	regAt      map[string]time.Time
	lost       map[string]time.Time
	cycleTimes []time.Time
	handoffs   int
	moved      int
	cycle      int
	closed     bool
	fleetProc  *process.Processor

	// mu guards the published views below.
	mu         sync.Mutex
	status     FleetStatus
	lastMerged *tables.Snapshot
	lastAnoms  []process.Anomaly
	lastHealth []TargetHealthView
	engines    []*engine.Engine
}

// New starts a supervisor with cfg.Shards live workers and no targets.
func New(cfg Config) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	s := &Supervisor{
		cfg:       cfg,
		assign:    make(map[string]int),
		regAt:     make(map[string]time.Time),
		lost:      make(map[string]time.Time),
		fleetProc: process.New(),
		workers:   make([]*worker, cfg.Shards),
	}
	// The fleet processor keeps the merged series; detection stays on
	// the per-shard processors, where each target's episode state lives
	// and travels through handoffs.
	s.fleetProc.SetDetectors()
	for i := range s.workers {
		w, err := s.spawn(i, 0)
		if err != nil {
			_ = s.closeWorkers() //mantralint:allow walerr abandoning freshly opened stores on a path already returning the spawn error; nothing was written
			return nil, err
		}
		s.workers[i] = w
	}
	return s, nil
}

func (s *Supervisor) spawn(idx, gen int) (*worker, error) {
	dir := ""
	if s.cfg.DataDir != "" {
		dir = filepath.Join(s.cfg.DataDir, fmt.Sprintf("shard-%02d", idx))
	}
	core, err := newCore(s.cfg, dir)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", idx, err)
	}
	w := &worker{
		idx:     idx,
		gen:     gen,
		core:    core,
		conc:    s.cfg.Concurrency,
		reqCh:   make(chan cycleReq, 1),
		respCh:  make(chan cycleResp, 1),
		done:    make(chan struct{}),
		alive:   true,
		backoff: s.cfg.RestartBackoff,
	}
	go w.loop()
	return w, nil
}

// Register adds a target to the fleet, assigning it on the live ring.
// Call between cycles (or before the first one).
func (s *Supervisor) Register(t collect.Target) {
	for i := range s.targets {
		if s.targets[i].Name == t.Name {
			s.targets[i] = t
			return
		}
	}
	s.targets = append(s.targets, t)
	if len(s.cycleTimes) > 0 {
		s.regAt[t.Name] = s.cycleTimes[len(s.cycleTimes)-1]
	}
	if live := s.liveShards(); len(live) > 0 {
		s.assign[t.Name] = assignTarget(buildRing(live), t.Name)
	}
}

// Targets returns the registered target names in registration order.
func (s *Supervisor) Targets() []string {
	out := make([]string, len(s.targets))
	for i, t := range s.targets {
		out[i] = t.Name
	}
	return out
}

func (s *Supervisor) liveShards() []int {
	var live []int
	for i, w := range s.workers {
		if w != nil && w.alive {
			live = append(live, i)
		}
	}
	return live
}

// Kill scripts a fault on a shard worker, taking effect at its next
// dispatch — the chaos suite's entry point.
func (s *Supervisor) Kill(idx int, mode KillMode) {
	w := s.workers[idx]
	if w == nil {
		return
	}
	w.mu.Lock()
	w.kill = mode
	w.mu.Unlock()
}

// RunCycle drives one fleet cycle stamped at now: detect and hand off
// dead workers, restart those whose backoff expired, dispatch each live
// shard's targets, gather, and merge the fan-in views.
func (s *Supervisor) RunCycle(now time.Time) (*CycleResult, error) {
	if s.closed {
		return nil, ErrClosed
	}
	s.cycle++
	s.cycleTimes = append(s.cycleTimes, now)
	if len(s.cycleTimes) > 4096 {
		s.cycleTimes = append(s.cycleTimes[:0:0], s.cycleTimes[len(s.cycleTimes)-4096:]...)
	}
	res := &CycleResult{At: now}
	s.reap(now, res)
	s.restartDue(now, res)

	// Dispatch: every live worker gets a request (an empty one still
	// heartbeats), targets in global registration order.
	byShard := make([][]collect.Target, len(s.workers))
	blind := map[string]bool{}
	for _, t := range s.targets {
		if sh, ok := s.assign[t.Name]; ok && s.workers[sh].alive {
			byShard[sh] = append(byShard[sh], t)
		} else {
			blind[t.Name] = true
		}
	}
	dispatched := make([]bool, len(s.workers))
	for i, w := range s.workers {
		if w == nil || !w.alive {
			continue
		}
		w.markDispatch(now)
		dispatched[i] = true
		w.reqCh <- cycleReq{now: now, targets: byShard[i]}
	}

	// Gather in shard order; per-target results keyed for the final
	// registration-order views.
	statsOf := make(map[string]process.CycleStats)
	var snaps []*tables.Snapshot
	degraded := map[string]bool{}
	for i, w := range s.workers {
		if !dispatched[i] {
			continue
		}
		select {
		case resp := <-w.respCh:
			if resp.wedged {
				for _, t := range byShard[i] {
					blind[t.Name] = true
				}
				continue
			}
			w.cycles++
			if resp.err != nil {
				res.WALErrs = append(res.WALErrs, fmt.Errorf("shard %d: %w", i, resp.err))
			}
			for _, it := range resp.items {
				if it.Stats != nil {
					statsOf[it.Target.Name] = *it.Stats
					//mantralint:allow sertaint gathered in shard order, and MergeSnapshots' result does not depend on the order of its inputs
					snaps = append(snaps, it.Snapshot)
				} else {
					degraded[it.Target.Name] = true
				}
			}
		case <-w.done:
			// Crashed mid-cycle: its targets are blind this cycle; the
			// next boundary's reap performs the handoff.
			for _, t := range byShard[i] {
				blind[t.Name] = true
			}
		}
	}

	for _, t := range s.targets {
		if st, ok := statsOf[t.Name]; ok {
			res.Stats = append(res.Stats, st)
		}
	}
	for name := range blind {
		res.Blind = append(res.Blind, name)
	}
	sort.Strings(res.Blind)
	for name := range degraded {
		res.Degraded = append(res.Degraded, name)
	}
	sort.Strings(res.Degraded)

	if len(snaps) > 0 {
		merged := tables.MergeSnapshots(FleetTarget, now, snaps...)
		st := s.fleetProc.Ingest(merged)
		res.FleetStats = &st
		s.publish(merged)
	} else {
		s.fleetProc.MarkGap(FleetTarget, now)
		s.publish(nil)
	}
	return res, nil
}

// reap declares dead workers and hands their targets off to survivors,
// counting the events in res.Handoffs.
func (s *Supervisor) reap(now time.Time, res *CycleResult) {
	for _, w := range s.workers {
		if w == nil || !w.alive || !s.isDead(w, now) {
			continue
		}
		s.handoff(w, now, res)
		res.Handoffs++
	}
}

// isDead reports crash (goroutine exited) or heartbeat staleness on the
// cycle timeline.
func (s *Supervisor) isDead(w *worker, now time.Time) bool {
	select {
	case <-w.done:
		return true
	default:
	}
	if s.cfg.HeartbeatTimeout <= 0 {
		return false
	}
	beat := w.beatAt()
	return !beat.IsZero() && now.Sub(beat) > s.cfg.HeartbeatTimeout
}

// handoff moves a dead worker's targets to the survivors, resuming each
// from the dead shard's checkpoint with gap markers covering the blind
// cycles, and schedules the restart. What fails to persist on the way
// goes into res.WALErrs.
func (s *Supervisor) handoff(w *worker, now time.Time, res *CycleResult) {
	w.alive = false
	w.deadAt = now
	w.restartAt = now.Add(w.backoff)
	w.backoff *= 2
	if w.backoff > s.cfg.MaxRestartBackoff {
		w.backoff = s.cfg.MaxRestartBackoff
	}
	// Stop the goroutine if it is still running (a wedged worker is
	// alive and draining its request channel) and release the WAL dir
	// for the eventual restart.
	close(w.reqCh)
	<-w.done
	if err := s.closeStore(w); err != nil {
		res.WALErrs = append(res.WALErrs, err)
	}
	s.handoffs++

	ck := w.checkpointRef()
	if ck == nil {
		ck = cycle.NewCheckpoint()
	}
	live := s.liveShards()
	if len(live) == 0 {
		// No survivors: the targets go unassigned (blind) until a
		// restart succeeds. The checkpoint dies with the worker, so
		// each target restarts fresh; we remember where coverage ended
		// so the eventual new owner can gap-mark the whole dark window.
		for name, sh := range s.assign {
			if sh == w.idx {
				s.lost[name] = ck.AsOf[name]
				delete(s.assign, name)
			}
		}
		return
	}
	ring := buildRing(live)
	prev := s.prevCycleTime(now)
	for _, t := range s.targets {
		if s.assign[t.Name] != w.idx {
			continue
		}
		dst := assignTarget(ring, t.Name)
		o := s.workers[dst]
		o.core.ImportTarget(t.Name, ck, now)
		if err := s.markBlind(o, t.Name, ck.AsOf[t.Name], now); err != nil {
			res.WALErrs = append(res.WALErrs, err)
		}
		s.assign[t.Name] = dst
		s.moved++
		s.refreshCkpt(o, t, prev)
	}
}

// markBlind gap-marks the recorded cycles in (asOf, now) for a target
// on its new owner: the fleet was blind to the target there, and the
// record must say so explicitly — on the series, the delta log and the
// WAL. A marker the WAL refuses stays on the in-memory record; every
// cycle is attempted and the last error returned, as Core.Commit does.
func (s *Supervisor) markBlind(o *worker, name string, asOf, now time.Time) error {
	if r := s.regAt[name]; r.After(asOf) {
		// Never collected before its registration point; don't invent
		// blindness for cycles that predate the target.
		asOf = r
	}
	var last error
	for _, ct := range s.cycleTimes {
		if !ct.After(asOf) || !ct.Before(now) {
			continue
		}
		o.core.Proc.MarkGap(name, ct)
		o.core.Log.MarkGap(name, ct, handoffGapReason)
		if o.core.Store != nil {
			if err := o.core.Store.AppendGap(name, ct, handoffGapReason); err != nil {
				last = fmt.Errorf("shard %d: handoff gap marker for %s: %w", o.idx, name, err)
			}
		}
	}
	return last
}

// restartDue restarts dead workers whose backoff expired and fails
// their ring ranges back with a live transfer (no blind window).
func (s *Supervisor) restartDue(now time.Time, res *CycleResult) {
	for i, w := range s.workers {
		if w == nil || w.alive || now.Before(w.restartAt) {
			continue
		}
		nw, err := s.spawn(i, w.gen+1)
		if err != nil {
			// The WAL dir (or similar) is not ready; retry after
			// another backoff period.
			w.restartAt = now.Add(w.backoff)
			continue
		}
		nw.restarts = w.restarts + 1
		nw.backoff = w.backoff
		s.workers[i] = nw
		// Failback: adding a node to the ring only steals ranges, so
		// each target either stays put or moves to the restored shard.
		live := s.liveShards()
		ring := buildRing(live)
		prev := s.prevCycleTime(now)
		movedAny := false
		for _, t := range s.targets {
			dst := assignTarget(ring, t.Name)
			cur, ok := s.assign[t.Name]
			if ok && dst == cur {
				continue
			}
			if ok {
				src := s.workers[cur]
				one := src.core.Export(prev, []collect.Target{t})
				s.workers[dst].core.ImportTarget(t.Name, one, now)
				src.core.RemoveTarget(t.Name)
				s.refreshCkpt(s.workers[dst], t, prev)
				s.moved++
				movedAny = true
			} else if lt, lost := s.lost[t.Name]; lost {
				// The target sat unassigned after a total outage; its
				// state is gone but the dark window goes on the record.
				if err := s.markBlind(s.workers[dst], t.Name, lt, now); err != nil {
					res.WALErrs = append(res.WALErrs, err)
				}
				s.refreshCkpt(s.workers[dst], t, prev)
				delete(s.lost, t.Name)
				movedAny = true
			}
			s.assign[t.Name] = dst
		}
		if movedAny {
			s.handoffs++
		}
	}
}

// prevCycleTime returns the newest recorded cycle stamp strictly before
// now, or the zero time.
func (s *Supervisor) prevCycleTime(now time.Time) time.Time {
	for i := len(s.cycleTimes) - 1; i >= 0; i-- {
		if s.cycleTimes[i].Before(now) {
			return s.cycleTimes[i]
		}
	}
	return time.Time{}
}

// refreshCkpt folds a just-imported target into the receiving worker's
// in-memory checkpoint, so a death before its next completed cycle
// still hands the target off with state instead of losing it.
func (s *Supervisor) refreshCkpt(w *worker, t collect.Target, asOf time.Time) {
	one := w.core.Export(asOf, []collect.Target{t})
	w.mu.Lock()
	if w.ckpt == nil {
		w.ckpt = cycle.NewCheckpoint()
	}
	w.ckpt.Merge(t.Name, one)
	w.mu.Unlock()
}

// Close stops every worker goroutine and closes the WAL stores,
// returning what failed to close. The supervisor cannot run further
// cycles afterwards.
func (s *Supervisor) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.closeWorkers()
}

func (s *Supervisor) closeWorkers() error {
	var errs []error
	for _, w := range s.workers {
		if w == nil {
			continue
		}
		if w.alive {
			close(w.reqCh)
			<-w.done
		}
		if err := s.closeStore(w); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// closeStore releases a stopped worker's WAL directory. Close syncs the
// segment, so its error is a persistence error like any other.
func (s *Supervisor) closeStore(w *worker) error {
	if w.core.Store == nil {
		return nil
	}
	err := w.core.Store.Close()
	w.core.Store = nil
	if err != nil {
		return fmt.Errorf("shard %d: %w", w.idx, err)
	}
	return nil
}
