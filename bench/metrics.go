// Metric tables and the arithmetic that turns the traced run's spans
// and counters into per-layer numbers.
package main

import (
	"repro/internal/core/engine"
)

// directReads times the tsdb layer alone on the reads of the traced run.
type directReads struct {
	classMs [numClasses][]float64
}

// query repeats r's store query directly against the system's stores.
func (d *directReads) query(s *system, r request, tr *tracer) {
	if r.query == nil {
		return
	}
	id := tr.begin("tsdb."+classNames[r.class], "", -1, 0)
	t0 := now()
	if s.sup != nil {
		_, _ = layerFleetQuery(s.sup, *r.query)
	} else {
		_, _ = layerTSDBQuery(s.mon.Processor().Store(), *r.query)
	}
	d.classMs[r.class] = append(d.classMs[r.class], ms(now()-t0))
	tr.end(id)
}

// layerSpans are the spans reported as <span>_ms: the per-cycle median
// of their self time.
var layerSpans = []string{
	"collect.session", "collect.session_insitu", "collect.validate", "collect.preprocess",
	"tables.build_snapshot", "tables.merge",
	"logger.append", "logger.wal_append", "logger.export_target",
	"process.ingest", "process.stability_observe", "process.stability_export",
	"process.export_target", "process.summary",
	"tsdb.append", "tsdb.export_target",
}

// checkpointSpans run on checkpoint cycles only; their median is taken
// over those cycles.
var checkpointSpans = []string{"logger.checkpoint", "process.export_state"}

// stageLayers maps each engine stage to the walk spans doing the same
// work on per-target items; the aggregate stage is every walk span on
// the merged view.
var stageLayers = map[engine.Stage][]string{
	engine.StageCollect:   {"collect.session", "collect.validate"},
	engine.StageNormalize: {"tables.build_snapshot"},
	engine.StageLog:       {"logger.append", "logger.wal_append"},
	engine.StageIngest:    {"process.ingest"},
	engine.StagePublish:   {"process.stability_observe", "process.summary"},
}

// positive keeps the samples above zero.
func positive(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}

// sumByCycle adds the self times of the named spans per cycle.
func sumByCycle(self map[string][]float64, names []string, cycles int) []float64 {
	out := make([]float64, cycles)
	for _, name := range names {
		for c, v := range self[name] {
			out[c] += v
		}
	}
	return out
}

// walkMetrics sets every per-layer metric that comes from the traced
// run. An untraced run reports them as zero, so that the set of names
// printed never depends on the mode. It returns the engine-stage
// cross-check of a Monitor reference.
func walkMetrics(set func(string, float64, string), side *tracedSide, tr *tracer, slog *sessionLog, cycleSpan map[int]int,
	cycles int, direct *directReads) map[engine.Stage][2]float64 {
	if side == nil {
		side = &tracedSide{} // untraced: every walk metric reads zero
	}
	wk, refSys, stageMs := side.walk, side.ref, side.stageMs
	self := map[string][]float64{}
	var walkByCycle []float64
	var stages map[engine.Stage][2]float64
	if tr != nil {
		tr.adopt(slog.spans, cycleSpan)
		slog.spans = nil
		self = tr.selfByCycle(cycles, func(*span) bool { return true })
		walkByCycle = sumByCycle(self, walkLayers, cycles)
		if refSys.mon != nil {
			merged := wk.cfg.Merged
			perTarget := tr.selfByCycle(cycles, func(s *span) bool { return s.Target != merged || merged == "" })
			onMerged := tr.selfByCycle(cycles, func(s *span) bool { return s.Target == merged && merged != "" })
			stages = make(map[engine.Stage][2]float64)
			for st, names := range stageLayers {
				stages[st] = [2]float64{median(stageMs[st]), median(sumByCycle(perTarget, names, cycles))}
			}
			stages[engine.StageAggregate] = [2]float64{median(stageMs[engine.StageAggregate]), median(sumByCycle(onMerged, walkLayers, cycles))}
		}
	}
	for _, span := range layerSpans {
		set(span+"_ms", median(self[span]), "ms")
	}
	for _, span := range checkpointSpans {
		set(span+"_ms", median(positive(self[span])), "ms")
	}
	walkSum := median(walkByCycle)
	serial := median(side.refSamples.wallMs)
	set("walk.sum_ms", walkSum, "ms")
	set("walk.serial_cycle_ms", serial, "ms")
	unexplained, engineOver, shardOver := 0.0, 0.0, 0.0
	if refSys != nil && serial > 0 {
		unexplained = 100 * (serial - walkSum) / serial
		if refSys.sup != nil {
			shardOver = serial - walkSum
		} else {
			engineOver = serial - walkSum
		}
	}
	set("walk.unexplained_pct", unexplained, "%")
	set("engine.overhead_ms", engineOver, "ms")
	set("shard.overhead_ms", shardOver, "ms")
	for _, st := range engine.OrderedStages {
		set("engine.stage_"+string(st)+"_ms", median(stageMs[st]), "ms")
	}
	set("engine.queue_depth_max", float64(side.queueDepth), "count")

	reads, bytes, sessions := 0, 0, 0
	if tr != nil {
		for _, s := range tr.spans {
			if s.Name == "collect.session_insitu" {
				sessions++
			}
		}
	}
	if slog != nil {
		reads, bytes = slog.reads, slog.bytes
	}
	perSession, perCycle := 0.0, 0.0
	if sessions > 0 {
		perSession, perCycle = float64(reads)/float64(sessions), float64(bytes)/float64(cycles)
	}
	set("collect.reads_per_session", perSession, "count")
	set("collect.bytes_per_cycle", perCycle, "B")

	var allocKB, rows, deltas, walRecords, walBytes, ckptKB []float64
	ratio, bpp := 0.0, 0.0
	if wk != nil {
		allocKB, rows, deltas, walRecords, walBytes, ckptKB = wk.allocKB, wk.rows, wk.deltas, wk.walRecords, wk.walBytes, wk.checkpoints
		ratio, bpp = wk.deltaRatio(), wk.bytesPerPoint()
	}
	set("tables.alloc_kb_per_target", median(allocKB), "KB")
	set("tables.rows_per_cycle", median(rows), "count")
	set("logger.delta_entries_per_cycle", median(deltas), "count")
	set("logger.delta_ratio", ratio, "ratio")
	set("logger.wal_records_per_cycle", median(walRecords), "count")
	set("logger.wal_bytes_per_cycle", median(walBytes), "B")
	set("logger.checkpoint_kb", median(ckptKB), "KB")
	set("tsdb.bytes_per_point", bpp, "B")
	set("tsdb.query_agg_ms", median(direct.classMs[classAgg]), "ms")
	set("tsdb.query_range_ms", median(direct.classMs[classRange]), "ms")
	set("tsdb.query_topk_ms", median(direct.classMs[classTopK]), "ms")
	return stages
}
