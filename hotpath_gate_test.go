package mantra_test

// The dynamic half of the //mantra:hotpath contract. mantralint's
// hotalloc check bounds the *static* allocation-site count of every
// hot-path function (TestHotRootsPinned in internal/lint pins the root
// list); the gates here bound what the key roots *actually* allocate
// per call with testing.AllocsPerRun, so an allocation that slips past
// the static view — hidden in the runtime, an escape the analyzer
// cannot prove — still fails the suite. Bounds are pinned a little
// above today's measurements: headroom for runtime noise, tight enough
// that a new per-call allocation (a fmt detour, a fresh map or scratch
// slice) trips the gate.

import (
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	mantra "repro"
	"repro/internal/addr"
	"repro/internal/core/collect"
	"repro/internal/core/cycle"
	"repro/internal/core/engine"
	"repro/internal/core/logger"
	"repro/internal/core/process"
	"repro/internal/core/tables"
	"repro/internal/core/tsdb"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// gateNetwork builds the small simulated internetwork the gates scrape
// real dumps from.
func gateNetwork(tb testing.TB) *netsim.Network {
	tb.Helper()
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 3
	inet := topo.BuildInternet(cfg)
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	n := netsim.New(inet, wl, netsim.DefaultConfig())
	if err := n.Track("fixw", "ucsb-gw"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		n.Step()
	}
	return n
}

func gateTarget(n *netsim.Network, name string) collect.Target {
	r := n.Router(name)
	r.Password = "pw"
	return collect.Target{
		Name:     name,
		Dialer:   collect.PipeDialer{Router: r},
		Password: "pw",
		Prompt:   name + "> ",
		Timeout:  5 * time.Second,
	}
}

func gateDumps(tb testing.TB) []collect.Dump {
	tb.Helper()
	n := gateNetwork(tb)
	dumps, err := collect.CollectAll(gateTarget(n, "fixw"), collect.StandardCommands, n.Now())
	if err != nil {
		tb.Fatal(err)
	}
	return dumps
}

// allocGate runs fn under AllocsPerRun and fails if the average
// allocation count exceeds max.
func allocGate(t *testing.T, name string, max float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, fn); got > max {
		t.Errorf("%s: %.1f allocs/op, gate is %.0f", name, got, max)
	}
}

func TestHotpathAllocGates(t *testing.T) {
	dumps := gateDumps(t)
	prompt := "fixw> "

	// The expect/dump parse path: per-dump costs scale with dump size,
	// so the gates bound the whole scraped command set at once.
	allocGate(t, "Preprocess all dumps", 1400, func() {
		for _, d := range dumps {
			collect.Preprocess(d.Raw)
		}
	})
	// The cycle's collect check: one pass over the raw bytes makes the
	// structural checks and builds the snapshot: one exactly-sized table
	// per non-empty dump and one copy of each distinct flag string —
	// nothing per row. (Validation and the table parse were gated at 40
	// and 11 when each read the dumps on its own; the parse at 5500 when
	// every row was split into fresh strings.)
	allocGate(t, "ScanDumps", 8, func() {
		if _, err, defect := tables.ScanDumps(prompt, dumps); err != nil || defect != nil {
			t.Fatal(err, defect)
		}
	})

	// Backoff's jitter hash must stay on the stack: zero allocations.
	// (Regression: it once formatted target/attempt/seed through fmt
	// into the hasher, three boxed allocations per retry decision.)
	pol := collect.DefaultPolicy()
	allocGate(t, "Policy.Backoff", 0, func() {
		pol.Backoff("fixw", 3)
	})
}

// cannedRouter serves recorded dumps over the session protocol of
// router.HandleSession and renders nothing, so what a collection
// allocates against it is the collector's own.
type cannedRouter struct {
	prompt []byte
	out    map[string][]byte
}

func (c cannedRouter) HandleSession(rw io.ReadWriter) error {
	var line [256]byte
	for {
		if _, err := rw.Write(c.prompt); err != nil {
			return err
		}
		n, err := rw.Read(line[:])
		if err != nil {
			return err
		}
		cmd := strings.TrimSpace(string(line[:n]))
		if cmd == "exit" {
			return nil
		}
		if _, err := rw.Write(c.out[cmd]); err != nil {
			return err
		}
	}
}

// TestCollectAllAllocBytes bounds what one collection allocates in
// bytes: the dumps themselves, each copied once out of the pooled read
// buffer at its exact size, plus a constant for the session and the
// pipe. Read-buffer regrowth, a doubling builder or a second copy of
// each dump would all land well outside the quarter allowed on top.
// The figure is the least of several runs, so a garbage collection that
// empties the buffer pool mid-test costs one run, not the gate.
func TestCollectAllAllocBytes(t *testing.T) {
	dumps := gateDumps(t)
	canned := cannedRouter{prompt: []byte("fixw> "), out: make(map[string][]byte)}
	dumpBytes := 0
	for _, d := range dumps {
		canned.out[d.Command] = []byte(d.Raw)
		dumpBytes += len(d.Raw)
	}
	tgt := collect.Target{Name: "fixw", Dialer: collect.PipeDialer{Router: canned}, Prompt: "fixw> ", Timeout: 5 * time.Second}
	least := ^uint64(0)
	for run := 0; run < 6; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := collect.CollectAll(tgt, collect.StandardCommands, time.Time{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range got {
			if d.Raw != dumps[i].Raw {
				t.Fatalf("%q replayed differently", d.Command)
			}
		}
		if run > 0 { // the first run grows the pooled buffer
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if gate := uint64(dumpBytes)*5/4 + 8<<10; least > gate {
		t.Errorf("CollectAll allocated %d bytes for %d bytes of dumps, gate is %d", least, dumpBytes, gate)
	}
	t.Logf("CollectAll: %d bytes allocated for %d bytes of dumps", least, dumpBytes)
}

// TestMergeSnapshotsAllocBytes bounds the fleet fan-in's merge in bytes:
// the two output tables, each allocated once at its length (plus an
// eighth for the allocator's size classes), and a constant for the
// per-input bookkeeping. The 22 inputs overlap the way
// a fleet's routers see one routing domain — every key on several of
// them, none on all — so a hash of the rows or an output that regrows
// as it fills would land well outside the gate. (The map merge it
// replaced allocated about ten times the output.)
func TestMergeSnapshotsAllocBytes(t *testing.T) {
	base, err := tables.BuildSnapshot(gateDumps(t))
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]*tables.Snapshot, 22)
	for i := range snaps {
		sn := &tables.Snapshot{Target: fmt.Sprintf("r%d", i), At: base.At}
		for j, e := range base.Routes {
			if (i+j)%3 != 0 {
				e.Metric += i % 4
				sn.Routes = append(sn.Routes, e)
			}
		}
		for j, e := range base.Pairs {
			if (i+j)%3 != 0 {
				e.RateKbps += float64(i)
				sn.Pairs = append(sn.Pairs, e)
			}
		}
		snaps[i] = sn
	}
	least := ^uint64(0)
	var out *tables.Snapshot
	for run := 0; run < 4; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out = tables.MergeSnapshots("fleet", base.At, snaps...)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if len(out.Routes) != len(base.Routes) || len(out.Pairs) != len(base.Pairs) {
		t.Fatalf("merged %d routes and %d pairs, want %d and %d", len(out.Routes), len(out.Pairs), len(base.Routes), len(base.Pairs))
	}
	tableBytes := uint64(cap(out.Routes))*uint64(unsafe.Sizeof(tables.RouteEntry{})) +
		uint64(cap(out.Pairs))*uint64(unsafe.Sizeof(tables.PairEntry{}))
	if gate := tableBytes*9/8 + 4<<10; least > gate {
		t.Errorf("MergeSnapshots allocated %d bytes for %d bytes of output tables, gate is %d", least, tableBytes, gate)
	}
	t.Logf("MergeSnapshots: %d bytes allocated for %d bytes of output tables", least, tableBytes)
}

// dvmrpRouteDump renders a DVMRP route table of n routes that have all
// been up for uptime, in the format router.showDVMRPRoute emits.
func dvmrpRouteDump(n int, uptime time.Duration) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "DVMRP Routing Table - %d entries\n", n)
	b.WriteString("Origin-Subnet       From-Gateway     Metric  Uptime\n")
	secs := int64(uptime / time.Second)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%-19s %-16s %-7d %d:%02d:%02d\n",
			fmt.Sprintf("10.%d.%d.0/24", i/256, i%256), "192.168.0.1", 3, secs/3600, secs/60%60, secs%60)
	}
	return []byte(b.String())
}

// TestWorkerCheckpointAllocBytes bounds what a shard worker's per-cycle
// checkpoint (cycle.Core.Export) allocates. The checkpoint carries only
// what cannot be derived from the rest of it, so its cost must depend
// neither on the size of the target's route table nor on how many
// cycles have been logged. (It used to
// copy the stability tracker, the route set and the whole delta log:
// about a hundred times more for the large target than for the small
// one, and more every cycle.) The two cycles compared for history are
// one tsdb block apart: the store's export copies each series' open
// head, which grows to tsdb.BlockPoints and starts over, so only cycles
// at the same point of that sawtooth compare like with like. Each
// figure is the least of several exports, as in
// TestCollectAllAllocBytes.
func TestWorkerCheckpointAllocBytes(t *testing.T) {
	const routeCmd = "show ip dvmrp route"
	dumps := gateDumps(t)
	sizes := map[string]int{"large": 4000, "small": 40}
	routers := make(map[string]cannedRouter)
	var targets []collect.Target
	for _, name := range []string{"large", "small"} {
		r := cannedRouter{prompt: []byte(name + "> "), out: make(map[string][]byte)}
		for _, d := range dumps {
			r.out[d.Command] = []byte(d.Raw)
		}
		routers[name] = r
		targets = append(targets, collect.Target{Name: name, Dialer: collect.PipeDialer{Router: r}, Prompt: name + "> ", Timeout: 5 * time.Second})
	}
	core := cycle.New(collect.DefaultPolicy(), collect.StandardCommands, nil)

	exportBytes := func(at time.Time, tgt collect.Target) uint64 {
		least := ^uint64(0)
		for run := 0; run < 4; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ck := core.Export(at, []collect.Target{tgt})
			runtime.ReadMemStats(&after)
			if len(ck.Logs[tgt.Name].Records) == 0 || ck.Latest[tgt.Name] == nil || ck.Proc[tgt.Name] == nil {
				t.Fatalf("%s: checkpoint is missing state: %+v", tgt.Name, ck)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}

	const early, late = 20, 20 + tsdb.BlockPoints
	var largeEarly uint64
	at := time.Date(2001, 9, 3, 0, 0, 0, 0, time.UTC)
	for c := 1; c <= late; c++ {
		at = at.Add(30 * time.Minute)
		for name, r := range routers {
			r.out[routeCmd] = dvmrpRouteDump(sizes[name], time.Duration(c)*30*time.Minute)
		}
		items, _, _ := core.Run(at, targets, engine.Options{Concurrency: 1})
		for _, it := range items {
			if it.Failed() || len(it.Snapshot.Routes) != sizes[it.Target.Name] {
				t.Fatalf("cycle %d: %s did not collect its %d routes: %v", c, it.Target.Name, sizes[it.Target.Name], it.Res.Err)
			}
		}
		if c != early && c != late {
			continue
		}
		large, small := exportBytes(at, targets[0]), exportBytes(at, targets[1])
		t.Logf("cycle %d: Export allocates %d bytes for the 4000-route target, %d for the 40-route one", c, large, small)
		if gate := small*5/4 + 4<<10; large > gate {
			t.Errorf("cycle %d: Export allocated %d bytes for the 4000-route target and %d for the 40-route one; gate is %d — the checkpoint scales with table size", c, large, small, gate)
		}
		if c == early {
			largeEarly = large
		} else if gate := largeEarly * 5 / 4; large > gate {
			t.Errorf("Export allocated %d bytes at cycle %d and %d at cycle %d; gate is %d — the checkpoint scales with history length", large, late, largeEarly, early, gate)
		}
	}
}

// TestReadPathAllocBytesFlatInHistory holds the two read paths a
// dashboard polls, /graph and /health, to what they allocate at a short
// history: at four times the points per series a request may allocate
// at most a quarter more, plus a constant. /graph draws the store's
// blocks one at a time and /health counts gaps from the detection
// windows; a copy of the series on either path grows with its length.
// Each figure is the least of several requests.
func TestReadPathAllocBytesFlatInHistory(t *testing.T) {
	m := mantra.New()
	m.AddTarget(collect.Target{Name: "fixw", Dialer: collect.PipeDialer{Router: cannedRouter{prompt: []byte("fixw> ")}}, Prompt: "fixw> "})
	h := m.Handler()
	p := m.Processor()
	at := time.Date(2001, 9, 3, 0, 0, 0, 0, time.UTC)
	extend := func(points int) {
		for i := 0; i < points; i++ {
			at = at.Add(30 * time.Minute)
			if i%50 == 49 {
				p.MarkGap("fixw", at)
				continue
			}
			p.Ingest(&tables.Snapshot{Target: "fixw", At: at, Routes: make(tables.RouteTable, 100+i%37)})
		}
	}
	requestBytes := func(url string) uint64 {
		least := ^uint64(0)
		for run := 0; run < 4; run++ {
			rec := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			runtime.ReadMemStats(&after)
			if rec.Code != 200 {
				t.Fatalf("GET %s: %d %s", url, rec.Code, rec.Body)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	const n = 4 * tsdb.BlockPoints
	urls := []string{"/graph/fixw/routes", "/health"}
	extend(n)
	short := make([]uint64, len(urls))
	for i, url := range urls {
		short[i] = requestBytes(url)
	}
	extend(3 * n)
	for i, url := range urls {
		long := requestBytes(url)
		t.Logf("%s: %d bytes at %d points per series, %d at %d", url, short[i], n, long, 4*n)
		if gate := short[i]*5/4 + 2<<10; long > gate {
			t.Errorf("%s allocated %d bytes at %d points per series and %d at %d; gate is %d — the read path grows with history", url, short[i], n, long, 4*n, gate)
		}
	}
}

// TestLoggerAppendSteadyStateAllocs pins the Log stage's steady state:
// with the topology quiet, a cycle walks the snapshot's tables against
// the previous cycle's, finds nothing, and keeps the new tables by
// reference, so it allocates nothing per cycle but the log's own growth.
// (Regressions: Append once built two fresh seen-maps per cycle per
// target; a copy of the retained table would be as bad.) The byte gate
// bounds Append plus the stability update the stage drives from its
// record at a tenth of the route table's size, averaged over enough
// cycles to spread the record slice's regrowth.
func TestLoggerAppendSteadyStateAllocs(t *testing.T) {
	dumps := gateDumps(t)
	sn, err := tables.BuildSnapshot(dumps)
	if err != nil {
		t.Fatal(err)
	}
	l := logger.New()
	rs := process.NewRouteStability()
	cycle := func() {
		rec := l.Append(sn)
		rs.ObserveDelta(rec.At, rec.Routes.Upserted, rec.Routes.Removed)
	}
	cycle() // full first cycle
	cycle()
	allocGate(t, "Logger.Append + ObserveDelta steady state", 1, cycle)

	const cycles = 512
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	tableBytes := uint64(len(sn.Routes)) * uint64(unsafe.Sizeof(tables.RouteEntry{}))
	if gate := tableBytes / 10; perCycle > gate {
		t.Errorf("Append + ObserveDelta allocated %d bytes a cycle over a %d-byte route table, gate is %d", perCycle, tableBytes, gate)
	}
	t.Logf("Append + ObserveDelta: %d bytes a cycle, route table %d bytes", perCycle, tableBytes)
}

// counterTables returns two versions of a pairs-row (S,G) table in key
// order: b is a with every packet count advanced and every fifth rate
// changed, as one cycle of active multicast moves them.
func counterTables(pairs int) (a, b tables.PairTable) {
	since := time.Date(2001, 9, 3, 0, 0, 0, 0, time.UTC)
	for i := 0; i < pairs; i++ {
		e := tables.PairEntry{Source: addr.IP(0x0a000000 + uint32(i%50)), Group: addr.IP(0xe0020000 + uint32(i/50)),
			Flags: "DT", RateKbps: float64(i%7) + 0.25, Packets: uint64(1000 * i), Since: since}
		a = append(a, e)
		e.Packets += uint64(1 + i%90)
		if i%5 == 0 {
			e.RateKbps += 1.5
		}
		b = append(b, e)
	}
	return a, b
}

// TestLoggerCounterColumnRetainedBytes gates what the delta log keeps
// of a table whose identity stands still while every packet count moves
// and a fifth of the rates change: 200 cycles of 2 000 pairs must be
// held in a tenth of what logging every pair every cycle would take.
// (When a pair's counters were part of its logged row, the log kept
// every row of every cycle.) On the same table a steady-state Append
// allocates at most once, the record's counter column, and a cycle in
// which no counter moves stores no column at all.
func TestLoggerCounterColumnRetainedBytes(t *testing.T) {
	const pairs, cycles = 2000, 200
	a, b := counterTables(pairs)
	at := time.Date(2001, 9, 3, 0, 0, 0, 0, time.UTC)
	next := func(c int) *tables.Snapshot {
		at = at.Add(30 * time.Minute)
		sn := &tables.Snapshot{Target: "rp", At: at, Pairs: append(tables.PairTable(nil), a...)}
		for i := range sn.Pairs {
			sn.Pairs[i].Packets += uint64(c) * (b[i].Packets - a[i].Packets)
			if c%2 == 1 {
				sn.Pairs[i].RateKbps = b[i].RateKbps
			}
		}
		return sn
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := logger.New()
	for c := 0; c < cycles; c++ {
		l.Append(next(c))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if gate := int64(cycles * pairs * unsafe.Sizeof(tables.PairEntry{}) / 10); retained > gate {
		t.Errorf("the log retains %d bytes after %d cycles of %d pairs, gate is %d", retained, cycles, pairs, gate)
	}
	t.Logf("log of %d cycles × %d pairs: %d bytes retained", cycles, pairs, retained)
	runtime.KeepAlive(l)

	snA, snB := &tables.Snapshot{Target: "rp", Pairs: a}, &tables.Snapshot{Target: "rp", Pairs: b}
	steady := logger.New()
	steady.Append(snA)
	if rec := steady.Append(snA); rec.Pairs.Counters != nil || len(rec.Pairs.Upserted) != 0 {
		t.Errorf("a cycle in which nothing moved logged %d upserts and a %d-byte column", len(rec.Pairs.Upserted), len(rec.Pairs.Counters))
	}
	flip := false
	allocGate(t, "Logger.Append, every counter moving", 1, func() {
		if flip = !flip; flip {
			steady.Append(snB)
		} else {
			steady.Append(snA)
		}
	})
}

// TestIngestSteadyStateAllocs holds Processor.Ingest to what it
// allocated when route churn was counted against a hash set updated in
// place: the session and participant tables it derives, nothing for the
// route table, which it walks and keeps by reference.
func TestIngestSteadyStateAllocs(t *testing.T) {
	sn, err := tables.BuildSnapshot(gateDumps(t))
	if err != nil {
		t.Fatal(err)
	}
	p := process.New()
	for i := 0; i < 600; i++ { // fill the windows and seal the first store blocks
		p.Ingest(sn)
	}
	allocGate(t, "Processor.Ingest steady state", 160, func() {
		p.Ingest(sn)
	})
}

// BenchmarkHotpathParsePath tracks the expect/dump parse chain —
// Preprocess, then ScanDumps over one scraped command set — with
// allocs/op reported: the numbers the gates above bound.
func BenchmarkHotpathParsePath(b *testing.B) {
	dumps := gateDumps(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range dumps {
			collect.Preprocess(d.Raw)
		}
		if _, err, defect := tables.ScanDumps("fixw> ", dumps); err != nil || defect != nil {
			b.Fatal(err, defect)
		}
	}
}

// BenchmarkHotpathLoggerAppend tracks the steady-state delta append.
func BenchmarkHotpathLoggerAppend(b *testing.B) {
	sn, err := tables.BuildSnapshot(gateDumps(b))
	if err != nil {
		b.Fatal(err)
	}
	l := logger.New()
	l.Append(sn)
	l.Append(sn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(sn)
	}
}
