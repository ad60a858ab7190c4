// Shard workers: each one is a cycle.Core — the same collector, delta
// logger, processor, stage wiring and WAL commit the unsharded Monitor
// runs, plus an optional per-shard WAL store — under supervision: driven
// over a request/response channel pair by the supervisor. The worker
// goroutine owns its core exclusively while a cycle is in flight;
// between cycles the supervisor may reach into an idle core directly
// (handoff imports, exports), with the next request/response pair
// providing the happens-before edge. Everything else the two share
// travels on that pair: the scripted kill in the request, the cycle's
// checkpoint in the response. The heartbeat is the supervisor's own,
// stamped when a response arrives.
//
// WAL writes are group-committed, and the fence is where the worker
// places Core.Commit: the in-memory logger is updated stage-by-stage
// during the cycle, but store frames are buffered and committed only
// after the cycle completes and the worker passes its kill check. A
// worker killed mid-cycle therefore persists nothing for that cycle —
// the frame sequence on disk never contains a cycle the supervisor saw
// fail, which is what keeps cross-shard replay free of duplicate and
// out-of-order frames after a handoff.
package shard

import (
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/cycle"
	"repro/internal/core/engine"
	"repro/internal/core/logger"
)

// KillMode is a scripted worker fault, set by the chaos suite between
// cycles and carried by the worker's next request.
type KillMode int

const (
	killNone KillMode = iota
	// KillBeforeCycle crashes the worker as it picks up the request,
	// before any collection runs.
	KillBeforeCycle
	// KillMidCycle crashes the worker after the engine cycle ran but
	// before anything is persisted, checkpointed or acknowledged — the
	// torn-handoff case the WAL group-commit fencing exists for.
	KillMidCycle
	// Wedge leaves the goroutine alive but useless: it acknowledges
	// requests without collecting and never heartbeats, so only the
	// heartbeat staleness check can catch it.
	Wedge
)

type cycleReq struct {
	now     time.Time
	targets []collect.Target
	kill    KillMode
}

type cycleResp struct {
	items []*engine.Item
	// ckpt is the checkpoint the worker took after the cycle.
	ckpt   *cycle.Checkpoint
	wedged bool
	err    error
}

// newCore builds one worker's cycle core: the same stage wiring and WAL
// commit the unsharded Monitor runs, with no Publish hook (the fleet
// fan-in publishes) and an optional per-shard store under dir.
func newCore(cfg Config, dir string) (*cycle.Core, error) {
	c := cycle.New(cfg.Policy, cfg.Commands, cfg.Clock)
	c.Proc.MaxAnomalies = cfg.MaxAnomalies
	if dir != "" {
		st, err := logger.OpenStore(dir, logger.StoreOptions{SyncEveryAppend: cfg.SyncEveryAppend})
		if err != nil {
			return nil, err
		}
		c.Store = st
	}
	return c, nil
}

// worker is one supervised shard: a core, the goroutine driving it, and
// the supervisor-side lifecycle bookkeeping.
type worker struct {
	idx int
	gen int

	core *cycle.Core
	// conc is the core's engine worker-pool bound.
	conc   int
	reqCh  chan cycleReq
	respCh chan cycleResp
	done   chan struct{}

	// Supervisor-owned state (driver goroutine only): the fault the next
	// dispatch carries, the heartbeat — the last cycle the worker
	// completed, seeded at its first dispatch — the checkpoint its last
	// response carried, and the lifecycle.
	kill      KillMode
	lastBeat  time.Time
	ckpt      *cycle.Checkpoint
	alive     bool
	deadAt    time.Time
	restartAt time.Time
	backoff   time.Duration
	restarts  int
	cycles    int
}

// loop is the worker goroutine: one request, one cycle, one response.
// Every exit path closes done — the supervisor's crash detector.
func (w *worker) loop() {
	defer close(w.done)
	for req := range w.reqCh {
		switch req.kill {
		case KillBeforeCycle:
			return
		case KillMidCycle:
			// The cycle runs — in-memory state mutates, WAL buffers
			// fill — and then the worker dies before committing,
			// checkpointing or responding. Nothing from this cycle
			// survives it.
			w.core.Run(req.now, req.targets, engine.Options{Concurrency: w.conc})
			return
		case Wedge:
			w.respCh <- cycleResp{wedged: true}
			continue
		}
		items, _, _ := w.core.Run(req.now, req.targets, engine.Options{Concurrency: w.conc})
		err := w.core.Commit()
		w.respCh <- cycleResp{items: items, ckpt: w.core.Export(req.now, req.targets), err: err}
	}
}
