// One run of one workload: set-up, the cycle and request loops with
// only the monitor's own calls timed, the correctness checks, and the
// metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/core/engine"
	"repro/internal/core/process"
)

// setupRepeats is how many times a run builds its workload from
// scratch. setup_s is the median; the last build is the one the timed
// cycles run on. (The benchmark's driver asks for a median of several
// set-ups; the tests build once.)
var setupRepeats = 3

// recoveries is how many byte-identical copies of the crashed archive
// the durable workload recovers. Each copy is a second or more of
// untimed disk writes on the reference VM, which is what keeps it at 5.
const recoveries = 5

// runOptions are the knobs of one run.
type runOptions struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// ScratchDir receives archives; OutDir receives span files.
	ScratchDir, OutDir string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports.
type result struct {
	Workload  string
	Traced    bool
	Attempted int
	Failed    int
	Failures  []string
	Digest    string
	EndToEnd  map[string]metricValue
	PerLayer  map[string]metricValue
	// Stages pairs, per engine stage, the reference Monitor's median
	// stage total with the walk's median over the same work (ms); set by
	// traced runs of Monitor workloads.
	Stages map[engine.Stage][2]float64
}

// cycleSamples are the per-cycle measurements of the system under test.
type cycleSamples struct {
	wallMs, cpuMs, allocMB []float64
	dumpBytes              int
	targetBytes            []int // per target, for the shard balance
	times                  []time.Time
}

// timeCycle runs one cycle of s with only the runCycle call inside the
// timed region; counters are read just outside it.
func (cs *cycleSamples) timeCycle(s *system, in *cycleInput) error {
	s.load(in)
	a0, c0 := heapAllocBytes(), cpuTime()
	t0 := now()
	err := s.runCycle(in.At)
	d := now() - t0
	c1, a1 := cpuTime(), heapAllocBytes()
	cs.wallMs = append(cs.wallMs, ms(d))
	cs.cpuMs = append(cs.cpuMs, ms(c1-c0))
	cs.allocMB = append(cs.allocMB, float64(a1-a0)/(1<<20))
	cs.dumpBytes += in.DumpBytes
	if cs.targetBytes == nil {
		cs.targetBytes = make([]int, len(in.Sessions))
	}
	for i, attempts := range in.Sessions {
		for _, t := range attempts {
			cs.targetBytes[i] += t.bytes()
		}
	}
	cs.times = append(cs.times, in.At)
	return err
}

// ratio is a/b, 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scale sizes a count for the requested run length.
func scale(n int, seconds float64, floor int) int {
	v := int(math.Round(float64(n) * seconds / refSeconds))
	if v < floor {
		v = floor
	}
	return v
}

// run executes one workload once.
func run(w spec, opt runOptions) (*result, error) {
	cycles := scale(w.Cycles, opt.Seconds, 3)
	readsPerCycle := 0
	if w.Reads > 0 {
		readsPerCycle = scale(w.Reads, opt.Seconds, 50) / cycles
	}
	res := &result{Workload: w.Name, Traced: opt.Trace, EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
	fail := func(format string, args ...any) {
		res.Failed++
		if len(res.Failures) < 10 {
			res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
		}
	}

	var tr *tracer
	var slog *sessionLog
	if opt.Trace {
		tr, slog = &tracer{}, &sessionLog{}
	}
	phase := now()

	// Set-up, several times over: everything from topology build to the
	// first rendered transcripts. The earlier builds are thrown away.
	var rg *rig
	var setupS []float64
	for i := 0; i < setupRepeats; i++ {
		if rg != nil {
			if err := rg.sys.discard(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(opt.ScratchDir, fmt.Sprintf("setup-%d", i))
		t0 := now()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if rg, err = w.build(opt.Seed, cycles, dir, slog); err != nil {
			return nil, err
		}
		rg.first = rg.sub.next()
		setupS = append(setupS, (now() - t0).Seconds())
	}
	lap := func(name string) {
		fmt.Printf("# phase %-10s %6.2f s\n", name, (now() - phase).Seconds())
		phase = now()
	}
	lap("setup")
	sys := rg.sys
	if rg.step == 0 {
		rg.step, rg.historyFrom = rg.sub.step, rg.first.At
	}
	if rg.truth == nil {
		rg.truth = make(truth)
	}

	// The traced run adds a serial reference system and the layer walk,
	// both fed the same transcripts after each timed cycle.
	var side *tracedSide
	if opt.Trace {
		var err error
		if side, err = newTracedSide(rg, tr); err != nil {
			return nil, err
		}
	}

	mix := &mixer{
		rng: newPRNG(opt.Seed ^ 0x7ead), targets: rg.sub.targets,
		tables: sys.hasTables(), step: rg.step, first: rg.historyFrom, truth: rg.truth,
	}
	var rs readStats
	var direct directReads
	serveReads := func(latest time.Time, cycle int) {
		for i := 0; i < readsPerCycle; i++ {
			r := mix.next(latest)
			rs.serve(sys.handler, r, tr, cycle)
			if opt.Trace {
				direct.query(sys, r, tr)
			}
		}
	}

	// The cycle loop.
	var cs cycleSamples
	expected := make([][]expectation, 0, cycles)
	cycleSpan := make(map[int]int)
	gc0, gcCPU0, cpu0 := gcCycles(), gcCPUSeconds(), cpuTime()
	for c := 0; c < cycles; c++ {
		in := rg.first
		if c > 0 {
			in = rg.sub.next()
		}
		id := tr.begin("cycle", "", c, 0)
		cycleSpan[c] = id
		err := cs.timeCycle(sys, in)
		tr.end(id)
		if err != nil {
			fail("cycle %d: %v", c, err)
		}
		checkCycle(sys, in, rg.truth, fail)
		res.Attempted += len(in.Expect)
		expected = append(expected, in.Expect)

		if opt.Trace {
			if err := side.cycle(in, fail); err != nil {
				return nil, err
			}
		}
		serveReads(in.At, c)
	}
	gc1, gcCPU1, cpu1 := gcCycles(), gcCPUSeconds(), cpuTime()
	lap("cycles")
	fmt.Printf("# timed: %d cycles in %.2f s, %d requests in %.2f s; substrate %.2f s\n",
		cycles, sum(cs.wallMs)/1000, len(rs.ms), sum(rs.ms)/1000, (sum(rg.sub.stepMs)+sum(rg.sub.renderMs))/1000)
	res.Attempted += len(rs.ms)
	for _, f := range rs.failures {
		fail("request %s", f)
	}
	res.Failed += rs.failed - len(rs.failures)

	// End-of-run checks.
	checkSeries(sys, rg, expected, fail)
	lagTotal, lags := checkIncidents(sys, rg, cs.times, fail)
	res.Digest = viewDigest(sys)
	lap("checks")

	// Crash and recovery (archive workloads only).
	var recoverMs, layerRecoverMs []float64
	archiveMB := 0.0
	if dir := sys.cfg.ArchiveDir; dir != "" {
		archiveMB = float64(dirBytes(dir)) / (1 << 20)
		var err error
		if recoverMs, layerRecoverMs, err = recoverCopies(sys, rg.sub.targets, opt, tr, fail); err != nil {
			return nil, err
		}
		res.Attempted += len(recoverMs)
	}
	lap("recovery")

	// What the monitor itself retains: drop the simulator, the
	// transcripts and the harness's own reference data first.
	mirrorMB := 0.0
	if dir := sys.cfg.ArchiveDir; dir != "" {
		mirrorMB = float64(dirBytes(filepath.Join(dir, "tsdb"))) / (1 << 20)
	}
	rg.sub.net, rg.first, rg.truth, mix.truth = nil, nil, nil, nil
	heapMB := 0.0
	if !opt.Trace {
		heapMB = liveHeapMB()
	}

	// End-to-end metrics. CPU and allocation cover every timed region:
	// the cycles and, on read-mix, the requests issued after each.
	timedS := sum(cs.wallMs) / 1000
	e2e := res.EndToEnd
	e2e["setup_s"] = metricValue{median(setupS), "s"}
	e2e["cycle_ms_p50"] = metricValue{median(cs.wallMs), "ms"}
	e2e["cpu_ms_per_cycle"] = metricValue{(sum(cs.cpuMs) + rs.cpuMs) / float64(cycles), "ms"}
	e2e["alloc_mb_per_cycle"] = metricValue{(sum(cs.allocMB) + rs.allocMB) / float64(cycles), "MB"}
	e2e["heap_mb_end"] = metricValue{heapMB, "MB"}

	// Per-layer metrics: the ones any run can compute, then the walk's.
	pl := res.PerLayer
	set := func(name string, v float64, unit string) { pl[name] = metricValue{v, unit} }
	q := len(cs.allocMB) / 4
	if q == 0 {
		q = 1
	}
	set("cycle_ms_p90", quantile(cs.wallMs, 0.90), "ms")
	set("cycle_ms_p95", quantile(cs.wallMs, 0.95), "ms")
	set("dump_mb_per_s", float64(cs.dumpBytes)/(1<<20)/timedS, "MB/s")
	set("query_ms_p50", median(rs.classMs[classAgg]), "ms")
	set("query_ms_p99", quantile(rs.ms, 0.99), "ms")
	set("query_per_s", ratio(float64(len(rs.ms)), sum(rs.ms)/1000), "1/s")
	set("archive_mb", archiveMB, "MB")
	set("recover_ms", median(recoverMs), "ms")
	set("detect_lag_cycles", float64(lagTotal), "cycles")
	for _, name := range incidentScenarios {
		set("process.detect_lag."+name, float64(lags[name]), "cycles")
	}
	anoms := sys.anomalies()
	resolved := 0
	for _, a := range anoms {
		if a.Resolved {
			resolved++
		}
	}
	set("process.anomalies_opened", float64(len(anoms)), "count")
	set("process.anomalies_resolved", float64(resolved), "count")
	attempts, retries, degraded := scriptCounts(expected)
	set("collect.attempts", float64(attempts), "count")
	set("collect.retries", float64(retries), "count")
	set("collect.degraded", float64(degraded), "count")
	set("runtime.alloc_mb_cycle_first_q", sum(cs.allocMB[:q])/float64(q), "MB")
	set("runtime.alloc_mb_cycle_last_q", sum(cs.allocMB[len(cs.allocMB)-q:])/float64(q), "MB")
	set("runtime.gc_cycles_per_cycle", float64(gc1-gc0)/float64(cycles), "count")
	set("runtime.gc_cpu_pct", 100*(gcCPU1-gcCPU0)/(cpu1-cpu0).Seconds(), "%")
	set("substrate.step_ms", median(rg.sub.stepMs), "ms")
	set("substrate.render_ms", median(rg.sub.renderMs), "ms")
	set("tsdb.mirror_mb", mirrorMB, "MB")
	set("logger.recover_ms", median(layerRecoverMs), "ms")
	set("trace.cycle_ms_p50", e2e["cycle_ms_p50"].Value, "ms")
	set("shard.parallel_speedup", sum(cs.cpuMs)/float64(cycles)/median(cs.wallMs), "x")
	set("shard.imbalance", shardImbalance(sys, cs.targetBytes), "x")
	set("output.bytes_per_response", ratio(float64(rs.bytes), float64(len(rs.ms))), "B")
	set("output.mix_ms_p50", median(rs.ms), "ms")
	for cl, name := range outputClassMetric {
		set(name, median(rs.classMs[cl]), "ms")
	}
	res.Stages = walkMetrics(set, side, tr, slog, cycleSpan, cycles, &direct)
	if opt.Trace {
		path, err := tr.write(opt.OutDir, w.Name)
		if err != nil {
			return nil, err
		}
		fmt.Printf("# spans: %d written to %s\n", len(tr.spans), path)
		if err := side.close(); err != nil {
			return nil, err
		}
	}
	if err := sys.discard(); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedSide is what the traced run adds beside the system under test:
// a reference system of the same shape and the layer walk, both run
// serially on the transcripts of the cycle just timed.
type tracedSide struct {
	ref        *system
	refSamples cycleSamples
	walk       *walk
	stageMs    map[engine.Stage][]float64
	queueDepth int
}

func newTracedSide(rg *rig, tr *tracer) (*tracedSide, error) {
	ref, err := newSystem(rg.refCfg, rg.sub.targets, nil)
	if err != nil {
		return nil, err
	}
	if rg.preload != nil {
		rg.preload(ref)
	}
	wk, err := newWalk(rg.walkCfg, rg.sub.targets, rg.sub.commands, tr)
	if err != nil {
		return nil, err
	}
	return &tracedSide{ref: ref, walk: wk, stageMs: make(map[engine.Stage][]float64)}, nil
}

// cycle runs the reference and the walk over one cycle's transcripts.
//
// The engine overlaps collection with processing even at one worker, so
// both run confined to one processor: only then is the reference's wall
// time the serial cost the walk's layers should add up to. Where nothing
// is archived the collector is paused for both: on one processor a
// collection lands whole in whichever of the two happens to trigger it
// (measured on dvmrp-fleet: the walk came out 12 % above the reference
// with it on, 1.4 % below with it off). Where checkpoints are written it
// stays on: each leaves hundreds of megabytes of garbage, and with the
// collector paused the heap balloons until page faults set the pace
// (measured: the walk's checkpoints took up to 15 s instead of 0.2 s).
// Collection cost is reported on its own, as runtime.gc_cpu_pct.
func (ts *tracedSide) cycle(in *cycleInput, fail func(string, ...any)) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if ts.walk.store == nil {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	if err := ts.refSamples.timeCycle(ts.ref, in); err != nil {
		fail("reference cycle %d: %v", in.Cycle, err)
	}
	if ts.ref.mon != nil {
		if rep := ts.ref.mon.LastCycleReport(); rep != nil {
			for _, st := range engine.OrderedStages {
				ts.stageMs[st] = append(ts.stageMs[st], ms(rep.StageTotal(st)))
			}
			ts.queueDepth = max(ts.queueDepth, rep.MaxQueueDepth)
		}
	}
	return ts.walk.cycle(in)
}

func (ts *tracedSide) close() error {
	err := ts.walk.close()
	if derr := ts.ref.discard(); err == nil {
		err = derr
	}
	return err
}

// recoverCopies abandons the system's archive as a crash would and
// recovers byte-identical copies of its directory, timing only the
// mantra.New + EnableArchive call. A recovery fails when it resumes
// nothing or serves different /series and /anomalies bytes than the
// monitor did before the crash. The traced run also times the logger
// layer alone on further copies.
func recoverCopies(sys *system, targets []string, opt runOptions, tr *tracer, fail func(string, ...any)) (e2eMs, layerMs []float64, err error) {
	dir := sys.cfg.ArchiveDir
	before := feedBodies(sys.handler, targets)
	for i := 0; i < recoveries; i++ {
		cp := filepath.Join(opt.ScratchDir, fmt.Sprintf("crashed-%d", i))
		if err := copyDir(dir, cp); err != nil {
			return nil, nil, err
		}
		id := tr.begin("recovery", "", -1, 0)
		t0 := now()
		m := mantra.New()
		rep, err := m.EnableArchive(mantra.ArchiveConfig{Dir: cp, Resume: true})
		d := now() - t0
		tr.end(id)
		e2eMs = append(e2eMs, ms(d))
		// The recovered monitor is abandoned like the crashed one:
		// closing it would write a checkpoint nobody reads.
		switch {
		case err != nil:
			fail("recovery %d: %v", i, err)
		case !rep.Resumed:
			fail("recovery %d: nothing resumed", i)
		case feedBodies(m.Handler(), targets) != before:
			fail("recovery %d: /series and /anomalies differ from the pre-crash bytes", i)
		}
		if opt.Trace {
			cp += "-store"
			if err := copyDir(dir, cp); err != nil {
				return nil, nil, err
			}
			t0 := now()
			if _, err := layerRecover(cp); err != nil {
				return nil, nil, err
			}
			layerMs = append(layerMs, ms(now()-t0))
		}
	}
	return e2eMs, layerMs, nil
}

// outputClassMetric names the per-route-class ServeHTTP medians.
var outputClassMetric = [numClasses]string{
	classAgg: "output.query_ms", classRange: "output.query_range_ms", classTopK: "output.query_topk_ms",
	classSeries: "output.series_ms", classTables: "output.tables_ms", classFeeds: "output.feeds_ms",
}

// checkCycle holds one finished cycle to its script: every target's
// status and attempt count, and for every collected target the table
// sizes its router declared. Collected cycles extend the truth series.
func checkCycle(s *system, in *cycleInput, tr truth, fail func(string, ...any)) {
	status, attempts := s.outcomes()
	for i, exp := range in.Expect {
		name := s.targets[i]
		if status[i] != exp.Status || attempts[i] != exp.Attempts {
			fail("cycle %d %s: %s after %d attempts, scripted %s after %d", in.Cycle, name, status[i], attempts[i], exp.Status, exp.Attempts)
			continue
		}
		if exp.Status == collect.StatusDegraded {
			continue
		}
		tr.observe(name, in.At, exp.Counts)
		got, ok := s.counts(i)
		if !ok {
			fail("cycle %d %s: no snapshot after a %s collection", in.Cycle, name, exp.Status)
			continue
		}
		want := exp.Counts
		if got.Pairs < 0 {
			want.Pairs = -1 // the supervisor does not publish per-target pair counts
		}
		if got != want {
			fail("cycle %d %s: holds %+v, router declared %+v", in.Cycle, name, got, want)
		}
	}
}

// scriptCounts totals the script: collection attempts, the retries among
// them, and collections that end degraded.
func scriptCounts(expected [][]expectation) (attempts, retries, degraded int) {
	for _, exp := range expected {
		for _, e := range exp {
			attempts += e.Attempts
			retries += e.Attempts - 1
			if e.Status == collect.StatusDegraded {
				degraded++
			}
		}
	}
	return attempts, retries, degraded
}

// checkSeries verifies every target's series grew by exactly one value
// per collected cycle and one gap per scripted failure.
func checkSeries(s *system, rg *rig, expected [][]expectation, fail func(string, ...any)) {
	pre := 0
	if rg.preload != nil {
		pre = preloadCycles
	}
	for i, name := range s.targets {
		values, gaps := pre, 0
		for _, exp := range expected {
			if exp[i].Status == collect.StatusDegraded {
				gaps++
			} else {
				values++
			}
		}
		sr := s.series(name, process.MetricRoutes)
		if sr == nil {
			fail("%s: no routes series", name)
			continue
		}
		if sr.TotalLen() != values || sr.GapCount() != gaps {
			fail("%s: series has %d values and %d gaps, script has %d and %d", name, sr.TotalLen(), sr.GapCount(), values, gaps)
		}
	}
}

// checkIncidents finds, for every scheduled incident, the episode its
// detector opened on the primary watch target, and holds the lag to the
// scenario's bound (the script keeps session faults out of detection
// windows). It returns the summed lag and the per-scenario lags.
func checkIncidents(s *system, rg *rig, times []time.Time, fail func(string, ...any)) (int, map[string]int) {
	lags := make(map[string]int)
	total := 0
	cycleOf := make(map[int64]int, len(times))
	for c, t := range times {
		cycleOf[t.UnixNano()] = c
	}
	anoms := s.anomalies()
	for _, inc := range rg.incidents {
		sc := inc.Scenario
		primary := sc.Watch[0]
		found := -1
		for _, a := range anoms {
			c, ok := cycleOf[a.At.UnixNano()]
			if ok && a.Kind == sc.DetectKind && a.Target == primary && c >= inc.Begin && c < inc.Begin+incidentSpacing/2 {
				found = c
				break
			}
		}
		if found < 0 {
			fail("incident %s at cycle %d: no %s episode on %s", sc.Name, inc.Begin, sc.DetectKind, primary)
			continue
		}
		lag := found - inc.Begin
		if lag+1 > sc.MaxDetectCycles {
			fail("incident %s at cycle %d: detected after %d cycles, bound %d", sc.Name, inc.Begin, lag+1, sc.MaxDetectCycles)
		}
		lags[sc.Name] += lag
		total += lag
	}
	return total, lags
}

// get serves one untimed request and returns the body.
func get(h http.Handler, url string) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec.Body.String()
}

// feedBodies concatenates every target's series bodies and the anomaly
// feed: the bytes a recovered monitor must reproduce.
func feedBodies(h http.Handler, targets []string) string {
	var out strings.Builder
	out.WriteString(get(h, "/anomalies"))
	for _, t := range append([]string{mantra.AggregateTarget}, targets...) {
		for _, m := range process.AllMetrics {
			out.WriteString(get(h, "/series/"+t+"/"+string(m)))
		}
	}
	return out.String()
}

// viewDigest hashes the final merged snapshot, the anomaly feed and the
// merged view's series: equal seeds must produce equal digests.
func viewDigest(s *system) string {
	h := sha256.New()
	if m := s.mergedView(); m != nil {
		// The snapshot holds slices of plain values and no maps, so its
		// formatted form is a stable rendering.
		fmt.Fprintf(h, "%+v", *m)
	}
	fmt.Fprint(h, get(s.handler, "/anomalies"))
	for _, m := range process.AllMetrics {
		fmt.Fprint(h, get(s.handler, "/series/"+s.viewTarget()+"/"+string(m)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// shardImbalance is the busiest shard's share of the dump bytes over
// the mean share, from the supervisor's published assignment; 1 for an
// unsharded system.
func shardImbalance(s *system, targetBytes []int) float64 {
	if s.sup == nil {
		return 1
	}
	bytesOf := make(map[string]int, len(s.targets))
	for i, name := range s.targets {
		bytesOf[name] = targetBytes[i]
	}
	var perShard []float64
	for _, sh := range s.sup.Status().Shards {
		b := 0
		for _, name := range sh.Targets {
			b += bytesOf[name]
		}
		perShard = append(perShard, float64(b))
	}
	mean := sum(perShard) / float64(len(perShard))
	if mean == 0 {
		return 1
	}
	return quantile(perShard, 1) / mean
}
