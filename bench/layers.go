// The layer walk: after each timed cycle of the traced run, the same
// transcripts are pushed serially through the public functions of every
// layer, on instances the walk owns, one span per call.
//
// Every call from the walk into product code is in this file, one
// adapter per layer function. That list is the benchmark's contract
// with the code: a change to one of these signatures keeps the old name
// as a wrapper, or a benchmark issue updates the adapter.
package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/logger"
	"repro/internal/core/process"
	"repro/internal/core/shard"
	"repro/internal/core/tables"
	"repro/internal/core/tsdb"
)

// --- collect ---------------------------------------------------------

func layerCollectAll(t collect.Target, commands []string, at time.Time) ([]collect.Dump, error) {
	return collect.CollectAll(t, commands, at)
}

func layerValidate(prompt string, dumps []collect.Dump) error {
	return collect.ValidateDumps(prompt, dumps)
}

func layerPreprocess(dumps []collect.Dump) int {
	lines := 0
	for _, d := range dumps {
		lines += len(collect.Preprocess(d.Raw))
	}
	return lines
}

// --- tables ----------------------------------------------------------

func layerBuildSnapshot(dumps []collect.Dump) (*tables.Snapshot, error) {
	return tables.BuildSnapshot(dumps)
}

func layerMerge(name string, at time.Time, snaps []*tables.Snapshot) *tables.Snapshot {
	return tables.MergeSnapshots(name, at, snaps...)
}

// --- logger ----------------------------------------------------------

func layerLogAppend(l *logger.Logger, sn *tables.Snapshot) logger.CycleRecord { return l.Append(sn) }

func layerLogGap(l *logger.Logger, target string, at time.Time, reason string) {
	l.MarkGap(target, at, reason)
}

func layerLogExport(l *logger.Logger, target string) (logger.TargetState, bool) {
	return l.ExportTarget(target)
}

func layerLogRatio(l *logger.Logger, target string) (delta, full uint64) {
	delta, full, _ = l.StorageStats(target)
	return delta, full
}

func layerOpenStore(dir string) (*logger.Store, error) {
	return logger.OpenStore(dir, logger.StoreOptions{SyncEveryAppend: true})
}

func layerWALAppend(s *logger.Store, target string, rec logger.CycleRecord, full uint64) error {
	return s.AppendDelta(target, rec, full)
}

func layerWALGap(s *logger.Store, target string, at time.Time, reason string) error {
	return s.AppendGap(target, at, reason)
}

func layerCheckpoint(s *logger.Store, l *logger.Logger, extra []byte, at time.Time) error {
	return s.WriteCheckpoint(l, extra, at)
}

func layerStoreStats(s *logger.Store) logger.StoreStats { return s.Stats() }

// layerRecover opens a crashed archive directory and replays it.
func layerRecover(dir string) (*logger.RecoveredArchive, error) {
	s, err := layerOpenStore(dir)
	if err != nil {
		return nil, err
	}
	ra := s.Recover()
	return ra, s.Close()
}

// --- process ---------------------------------------------------------

func layerIngest(p *process.Processor, sn *tables.Snapshot) process.CycleStats { return p.Ingest(sn) }

func layerMarkGap(p *process.Processor, target string, at time.Time) { p.MarkGap(target, at) }

func layerStabilityObserve(rs *process.RouteStability, sn *tables.Snapshot) {
	rs.Observe(sn.Routes, sn.At)
}

func layerStabilityExport(rs *process.RouteStability) *process.StabilityState {
	return rs.ExportState()
}

func layerProcExport(p *process.Processor, target string) *process.TargetState {
	return p.ExportTarget(target)
}

func layerProcExportState(p *process.Processor) *process.State { return p.ExportState() }

// layerSummary computes the three publish inputs of a snapshot.
func layerSummary(sn *tables.Snapshot) int {
	return len(process.BusiestSessions(sn, 20)) + len(process.TopSenders(sn, 20)) + len(process.SummarizeRoutes(sn).MetricCounts)
}

// --- tsdb ------------------------------------------------------------

// layerTSDBAppend repeats, on a scratch store, the thirteen appends one
// Ingest makes.
func layerTSDBAppend(st *tsdb.Store, cs process.CycleStats) {
	ns := cs.At.UnixNano()
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	for _, mv := range []struct {
		m process.Metric
		v float64
	}{
		{process.MetricSessions, float64(cs.Sessions)},
		{process.MetricParticipants, float64(cs.Participants)},
		{process.MetricActiveSessions, float64(cs.ActiveSessions)},
		{process.MetricSenders, float64(cs.Senders)},
		{process.MetricAvgDensity, cs.AvgDensity},
		{process.MetricBandwidthKbps, cs.BandwidthKbps},
		{process.MetricSavedFactor, cs.SavedFactor},
		{process.MetricActiveRatio, ratio(cs.ActiveSessions, cs.Sessions)},
		{process.MetricSenderRatio, ratio(cs.Senders, cs.Participants)},
		{process.MetricRoutes, float64(cs.Routes)},
		{process.MetricRouteChurn, float64(cs.RouteChurn)},
		{process.MetricSACache, float64(cs.SACache)},
		{process.MetricMBGPRoutes, float64(cs.MBGPRoutes)},
	} {
		st.Append(cs.Target, string(mv.m), ns, mv.v)
	}
}

func layerTSDBExport(st *tsdb.Store, target string) *tsdb.TargetState { return st.ExportTarget(target) }

func layerTSDBQuery(st *tsdb.Store, q tsdb.Query) (tsdb.Result, error) { return st.Query(q) }

// layerFleetQuery is the store read of a sharded system: each target
// answered by its owning shard's store, assembled by the supervisor.
func layerFleetQuery(s *shard.Supervisor, q tsdb.Query) (tsdb.Result, error) {
	return s.QueryFleet(q)
}

func layerTSDBCloseMirror(st *tsdb.Store) error { return st.CloseDir() }

func layerTSDBSize(st *tsdb.Store, target, metric string) (bytes, points int) {
	return st.CompressedBytes(target, metric), st.Len(target, metric)
}

func layerTSDBMirror(st *tsdb.Store, dir string) error { return st.AttachDir(dir, true) }

// --- the walk --------------------------------------------------------

// walkConfig mirrors the shape of the system the walk explains.
type walkConfig struct {
	// Exports adds the per-target state exports a shard worker makes
	// after every cycle.
	Exports bool
	// Summary adds the publish-stage inputs a Monitor computes per target.
	Summary bool
	// Merged names the combined view ("" for none). MergedLogged sends it
	// through the delta log and archive as well, as the Monitor's
	// aggregate stage does; the supervisor only ingests it.
	Merged       string
	MergedLogged bool
	// ArchiveDir gives the walk its own WAL, tsdb mirror and checkpoints.
	ArchiveDir      string
	CheckpointEvery int
}

// walkLayers are the spans whose self times add up to walk.sum_ms;
// of-which re-measurements are not among them.
var walkLayers = []string{
	"collect.session", "collect.validate", "tables.build_snapshot", "tables.merge",
	"logger.append", "logger.wal_append", "logger.checkpoint", "logger.export_target",
	"process.ingest", "process.stability_observe", "process.stability_export",
	"process.export_target", "process.export_state", "process.summary",
}

// walk owns one instance of every layer and the counters read off them.
type walk struct {
	cfg      walkConfig
	tr       *tracer
	targets  []string
	commands []string
	dialers  []*replayDialer

	log     *logger.Logger
	proc    *process.Processor
	fleet   *process.Processor // ingests the merged view of a supervisor
	scratch *tsdb.Store
	stab    []*process.RouteStability
	store   *logger.Store

	allocKB     []float64 // per BuildSnapshot call
	rows        []float64 // per cycle
	deltas      []float64 // per cycle
	walRecords  []float64 // per cycle
	walBytes    []float64 // per cycle
	checkpoints []float64 // checkpoint file KB
	sinceCkpt   int
}

func newWalk(cfg walkConfig, targets, commands []string, tr *tracer) (*walk, error) {
	w := &walk{
		cfg: cfg, tr: tr, targets: targets, commands: commands,
		dialers: make([]*replayDialer, len(targets)),
		log:     logger.New(),
		proc:    process.New(),
		scratch: tsdb.New(),
		stab:    make([]*process.RouteStability, len(targets)),
	}
	for i, name := range targets {
		w.dialers[i] = &replayDialer{target: name}
		w.stab[i] = process.NewRouteStability()
	}
	if cfg.Merged != "" && !cfg.MergedLogged {
		w.fleet = process.New()
		w.fleet.SetDetectors()
	}
	if cfg.ArchiveDir != "" {
		st, err := layerOpenStore(cfg.ArchiveDir)
		if err != nil {
			return nil, err
		}
		w.store = st
		if err := layerTSDBMirror(w.proc.Store(), filepath.Join(cfg.ArchiveDir, "tsdb")); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// timed runs fn inside a span.
func (w *walk) timed(name, target string, cycle, parent int, fn func()) int {
	id := w.tr.begin(name, target, cycle, parent)
	fn()
	w.tr.end(id)
	return id
}

// cycle walks one cycle's transcripts through every layer.
func (w *walk) cycle(in *cycleInput) error {
	c := in.Cycle
	root := w.tr.begin("walk.cycle", "", c, 0)
	var snaps []*tables.Snapshot
	rows, deltas := 0, 0
	var wal0 logger.StoreStats
	if w.store != nil {
		wal0 = layerStoreStats(w.store)
	}
	for i, name := range w.targets {
		tspan := w.tr.begin("walk.target", name, c, root)
		sn, rec, err := w.target(i, in, tspan)
		w.tr.end(tspan)
		if err != nil {
			return err
		}
		if sn != nil {
			snaps = append(snaps, sn)
			rows += len(sn.Routes) + len(sn.Pairs) + len(sn.IGMP) + len(sn.SAs) + len(sn.MBGP)
			deltas += len(rec.Pairs.Upserted) + len(rec.Pairs.Removed) + len(rec.Routes.Upserted) + len(rec.Routes.Removed)
		}
	}
	if w.cfg.Merged != "" && len(snaps) > 0 {
		if err := w.merged(in, snaps, root); err != nil {
			return err
		}
	}
	if w.store != nil {
		w.sinceCkpt++
		if w.sinceCkpt >= w.cfg.CheckpointEvery {
			if err := w.checkpoint(in, root); err != nil {
				return err
			}
			w.sinceCkpt = 0
		}
		wal1 := layerStoreStats(w.store)
		w.walRecords = append(w.walRecords, float64(wal1.AppendedRecords-wal0.AppendedRecords))
		w.walBytes = append(w.walBytes, float64(wal1.AppendedBytes-wal0.AppendedBytes))
	}
	w.tr.end(root)
	w.rows = append(w.rows, float64(rows))
	w.deltas = append(w.deltas, float64(deltas))
	return nil
}

// target walks one target: the scripted attempts through collection
// and validation, then the snapshot through every downstream layer.
func (w *walk) target(i int, in *cycleInput, parent int) (*tables.Snapshot, logger.CycleRecord, error) {
	c, name := in.Cycle, w.targets[i]
	w.dialers[i].load(c, in.Sessions[i])
	t := collect.Target{Name: name, Dialer: w.dialers[i], Password: cliPassword, Prompt: prompt(name), Timeout: 5 * time.Second}

	var dumps []collect.Dump
	var err error
	for range in.Sessions[i] {
		w.timed("collect.session", name, c, parent, func() { dumps, err = layerCollectAll(t, w.commands, in.At) })
		if err == nil {
			w.timed("collect.validate", name, c, parent, func() { err = layerValidate(t.Prompt, dumps) })
		}
		if err == nil {
			break
		}
	}
	if err != nil {
		// Every scripted attempt failed: the cycle is a gap in all layers.
		reason := err.Error()
		w.timed("logger.append", name, c, parent, func() { layerLogGap(w.log, name, in.At, reason) })
		if w.store != nil {
			w.timed("logger.wal_append", name, c, parent, func() { err = layerWALGap(w.store, name, in.At, reason) })
			if err != nil {
				return nil, logger.CycleRecord{}, err
			}
		}
		w.timed("process.ingest", name, c, parent, func() { layerMarkGap(w.proc, name, in.At) })
		return nil, logger.CycleRecord{}, nil
	}

	var sn *tables.Snapshot
	a0 := heapAllocBytes()
	build := w.timed("tables.build_snapshot", name, c, parent, func() { sn, err = layerBuildSnapshot(dumps) })
	w.allocKB = append(w.allocKB, float64(heapAllocBytes()-a0)/1024)
	if err != nil {
		return nil, logger.CycleRecord{}, fmt.Errorf("walk: %s cycle %d: %w", name, c, err)
	}
	w.tr.ofWhich(w.timed("collect.preprocess", name, c, build, func() { layerPreprocess(dumps) }))

	rec, err := w.logAndIngest(sn, name, c, parent)
	if err != nil {
		return nil, rec, err
	}
	w.timed("process.stability_observe", name, c, parent, func() { layerStabilityObserve(w.stab[i], sn) })
	if w.cfg.Summary {
		w.timed("process.summary", name, c, parent, func() { layerSummary(sn) })
	}
	if w.cfg.Exports {
		w.timed("logger.export_target", name, c, parent, func() { layerLogExport(w.log, name) })
		w.timed("process.stability_export", name, c, parent, func() { layerStabilityExport(w.stab[i]) })
		export := w.timed("process.export_target", name, c, parent, func() { layerProcExport(w.proc, name) })
		w.tr.ofWhich(w.timed("tsdb.export_target", name, c, export, func() { layerTSDBExport(w.proc.Store(), name) }))
	}
	return sn, rec, nil
}

// logAndIngest sends a snapshot through the delta log, the archive and
// the processor, as the engine's log and ingest stages do.
func (w *walk) logAndIngest(sn *tables.Snapshot, name string, c, parent int) (logger.CycleRecord, error) {
	var rec logger.CycleRecord
	var err error
	w.timed("logger.append", name, c, parent, func() { rec = layerLogAppend(w.log, sn) })
	if w.store != nil {
		full := uint64(len(sn.Pairs) + len(sn.Routes))
		w.timed("logger.wal_append", name, c, parent, func() { err = layerWALAppend(w.store, name, rec, full) })
		if err != nil {
			return rec, err
		}
	}
	var cs process.CycleStats
	ingest := w.timed("process.ingest", name, c, parent, func() { cs = layerIngest(w.proc, sn) })
	w.tr.ofWhich(w.timed("tsdb.append", name, c, ingest, func() { layerTSDBAppend(w.scratch, cs) }))
	return rec, nil
}

// merged walks the combined view: the fleet fan-in of a supervisor, or
// the aggregate stage of a Monitor.
func (w *walk) merged(in *cycleInput, snaps []*tables.Snapshot, parent int) error {
	c, name := in.Cycle, w.cfg.Merged
	var m *tables.Snapshot
	w.timed("tables.merge", name, c, parent, func() { m = layerMerge(name, in.At, snaps) })
	if !w.cfg.MergedLogged {
		w.timed("process.ingest", name, c, parent, func() { layerIngest(w.fleet, m) })
		return nil
	}
	if _, err := w.logAndIngest(m, name, c, parent); err != nil {
		return err
	}
	if w.cfg.Summary {
		w.timed("process.summary", name, c, parent, func() { layerSummary(m) })
	}
	return nil
}

// checkpoint repeats Monitor.Checkpoint: export the processor and the
// stability trackers, encode them as the checkpoint's extra payload,
// and write the checkpoint.
func (w *walk) checkpoint(in *cycleInput, parent int) error {
	c := in.Cycle
	var extra bytes.Buffer
	var err error
	w.timed("process.export_state", "", c, parent, func() {
		state := struct {
			Proc      *process.State
			Stability map[string]*process.StabilityState
		}{layerProcExportState(w.proc), make(map[string]*process.StabilityState, len(w.targets))}
		for i, name := range w.targets {
			state.Stability[name] = layerStabilityExport(w.stab[i])
		}
		err = gob.NewEncoder(&extra).Encode(state)
	})
	if err != nil {
		return err
	}
	w.timed("logger.checkpoint", "", c, parent, func() { err = layerCheckpoint(w.store, w.log, extra.Bytes(), in.At) })
	if err != nil {
		return err
	}
	w.checkpoints = append(w.checkpoints, float64(newestFileSize(w.cfg.ArchiveDir, "ckpt-"))/1024)
	return nil
}

// deltaRatio is delta entries over full entries across every target:
// the saving the paper's delta logging buys.
func (w *walk) deltaRatio() float64 {
	var delta, full uint64
	for _, name := range w.targets {
		d, f := layerLogRatio(w.log, name)
		delta, full = delta+d, full+f
	}
	if full == 0 {
		return 0
	}
	return float64(delta) / float64(full)
}

// bytesPerPoint is the compressed size of the walk's stored series
// over their point count.
func (w *walk) bytesPerPoint() float64 {
	bytes, points := 0, 0
	for _, name := range w.targets {
		for _, m := range process.AllMetrics {
			b, p := layerTSDBSize(w.proc.Store(), name, string(m))
			bytes, points = bytes+b, points+p
		}
	}
	if points == 0 {
		return 0
	}
	return float64(bytes) / float64(points)
}

func (w *walk) close() error {
	if w.store == nil {
		return nil
	}
	err := w.store.Close()
	if cerr := layerTSDBCloseMirror(w.proc.Store()); err == nil {
		err = cerr
	}
	return err
}
