// Shard workers: each one is a cycle.Core — the same collector, delta
// logger, processor, stage wiring and WAL commit the unsharded Monitor
// runs, plus an optional per-shard WAL store — under supervision: driven
// over a request/response channel pair by the supervisor. The worker
// goroutine owns its core exclusively while a cycle is in flight;
// between cycles the supervisor may reach into an idle core directly
// (handoff imports, exports), with the next request/response pair
// providing the happens-before edge.
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
	"sync"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/cycle"
	"repro/internal/core/engine"
	"repro/internal/core/logger"
)

// KillMode is a scripted worker fault, set by the chaos suite between
// cycles and consumed at the worker's next request.
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
}

type cycleResp struct {
	items  []*engine.Item
	wedged bool
	err    error
}

// newCore builds one worker's cycle core: the same stage wiring and WAL
// commit the unsharded Monitor runs, with no Publish hook (the fleet
// fan-in publishes) and an optional per-shard store under dir.
func newCore(cfg Config, dir string) (*cycle.Core, error) {
	c := cycle.New(cfg.Policy, cfg.Commands, cfg.Clock)
	c.Proc.MaxAnomalies = cfg.MaxAnomalies
	c.Proc.SetSeriesRetain(cfg.SeriesRetain)
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

	// mu guards the fields shared between the worker goroutine and the
	// supervisor: the scripted kill, the heartbeat and the checkpoint.
	mu       sync.Mutex
	kill     KillMode
	lastBeat time.Time
	ckpt     *cycle.Checkpoint

	// Supervisor-owned lifecycle state (driver goroutine only).
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
		switch w.takeKill() {
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
		ck := w.core.Export(req.now, req.targets)
		w.mu.Lock()
		w.lastBeat = req.now
		w.ckpt = ck
		w.mu.Unlock()
		w.respCh <- cycleResp{items: items, err: err}
	}
}

// takeKill reads the scripted fault. Crash modes are one-shot; Wedge
// persists until the supervisor declares the worker dead.
func (w *worker) takeKill() KillMode {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := w.kill
	if k == KillBeforeCycle || k == KillMidCycle {
		w.kill = killNone
	}
	return k
}

// markDispatch seeds the heartbeat for a worker that has never beaten,
// so staleness is measured from its first dispatch, not from zero.
func (w *worker) markDispatch(now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.lastBeat.IsZero() {
		w.lastBeat = now
	}
}

func (w *worker) beatAt() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastBeat
}

func (w *worker) checkpointRef() *cycle.Checkpoint {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ckpt
}
