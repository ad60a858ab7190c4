package mantra_test

// Allocation gates on the per-cycle path. Each gate bounds what one
// call of a hot function allocates, by count (testing.AllocsPerRun) or
// by bytes (runtime.MemStats.TotalAlloc), and together they reach every
// function a cycle runs per target, per dump or per row: the session
// and its expect loop, the one-pass dump scanner and its row parsers,
// the engine and the cycle's stages, the delta log, the WAL write path,
// the checkpoint write, the series store and the fleet merge. A count bound sits at today's
// figure wherever the gated call reaches a function only once, so one
// new allocation there — a fmt detour, a boxed argument, a fresh map or
// scratch slice — fails the suite; a byte bound holds a size that must
// not scale with the table or the history.

import (
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"path/filepath"
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
	"repro/internal/core/seglog"
	"repro/internal/core/tables"
	"repro/internal/core/tsdb"
	"repro/internal/netsim"
	"repro/internal/testfault"
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

// fullGateDumps returns one command set with rows in all five tables:
// fixw's dumps once every domain but ucsb runs native multicast (the
// MBGP table and the MSDP SA cache fill), with ucsb-gw's IGMP group
// table in place of fixw's empty one.
func fullGateDumps(tb testing.TB) []collect.Dump {
	tb.Helper()
	n := gateNetwork(tb)
	for _, d := range n.Topo.Domains() {
		if d.Name != "ucsb" {
			n.TransitionDomain(d.Name)
		}
	}
	for i := 0; i < 6; i++ {
		n.Step()
	}
	dumps, err := collect.CollectAll(gateTarget(n, "fixw"), collect.StandardCommands, n.Now())
	if err != nil {
		tb.Fatal(err)
	}
	igmp, err := collect.CollectAll(gateTarget(n, "ucsb-gw"), []string{"show ip igmp groups"}, n.Now())
	if err != nil {
		tb.Fatal(err)
	}
	for i := range dumps {
		if dumps[i].Command == igmp[0].Command {
			dumps[i].Raw = igmp[0].Raw
		}
	}
	sn, err := tables.BuildSnapshot(dumps)
	if err != nil {
		tb.Fatal(err)
	}
	if len(sn.Routes) == 0 || len(sn.Pairs) == 0 || len(sn.IGMP) == 0 || len(sn.SAs) == 0 || len(sn.MBGP) == 0 {
		tb.Fatalf("fixture leaves a table empty: %d routes, %d pairs, %d IGMP, %d SAs, %d MBGP",
			len(sn.Routes), len(sn.Pairs), len(sn.IGMP), len(sn.SAs), len(sn.MBGP))
	}
	return dumps
}

// allocGate fails if fn allocates more than max times a call. The
// figure is the least of three AllocsPerRun passes: an allocation the
// runtime makes for itself now and then (a goroutine descriptor, a
// timer) lands in one pass, while one fn makes on every call lands in
// all three. Under -race the detector adds one allocation to a call
// that starts a goroutine or opens a file, so the bound gets one more.
func allocGate(t *testing.T, name string, max float64, fn func()) {
	t.Helper()
	if raceDetector {
		max++
	}
	least := math.Inf(1)
	for pass := 0; pass < 3; pass++ {
		least = min(least, testing.AllocsPerRun(100, fn))
	}
	if least > max {
		t.Errorf("%s: %.1f allocs/op, gate is %.0f", name, least, max)
	}
	t.Logf("%s: %.1f allocs/op", name, least)
}

func TestHotpathAllocGates(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	dumps := gateDumps(t)
	full := fullGateDumps(t)
	prompt := "fixw> "

	// Preprocess, once per dump: the lines it returns and nothing else.
	allocGate(t, "Preprocess all dumps", 1244, func() {
		for _, d := range dumps {
			collect.Preprocess(d.Raw)
		}
	})
	// The cycle's collect check: one pass over the raw bytes makes the
	// structural checks and builds the snapshot: one exactly-sized table
	// per non-empty dump, the MBGP paths' backing array as it grows and
	// one copy of each distinct flag string — nothing per row, so a row
	// parser, parseUptime or an addr parser that allocates fails by
	// hundreds.
	// (Validation and the table parse were gated at 40 and 11 when each
	// read the dumps on its own; the parse at 5500 when every row was
	// split into fresh strings.)
	allocGate(t, "ScanDumps", 18, func() {
		if _, err, defect := tables.ScanDumps(prompt, full); err != nil || defect != nil {
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

	// One resilient collection against a canned router, into a sink that
	// keeps nothing, on a read buffer a first collection has made: the
	// session and the expect loop's reads. Login, Run, send and readUntil
	// each run at least once a call, so one more allocation in any of
	// them fails the gate. (64 when each dump was copied into a string of
	// its own and the router sat behind a pipe and a goroutine.)
	tgt := collect.Target{Name: "fixw", Dialer: newCanned(prompt, dumps), Prompt: prompt, Timeout: 5 * time.Second}
	col := collect.NewCollector(pol)
	col.Track(tgt.Name)
	var buf collect.ReadBuffer
	allocGate(t, "Collector.Collect", 16, func() {
		if res := col.Collect(tgt, collect.StandardCommands, time.Time{}, &buf, discard{}); res.Err != nil {
			t.Fatal(res.Err)
		}
	})

	// The fleet merge of three snapshots: the two output tables, the
	// union's cursors and the closures. sorted runs once per input
	// table and union once per output table.
	sn, err := tables.BuildSnapshot(dumps)
	if err != nil {
		t.Fatal(err)
	}
	allocGate(t, "MergeSnapshots", 9, func() {
		tables.MergeSnapshots("fleet", sn.At, sn, sn, sn)
	})

	// The engine's own cost for a cycle of four targets whose stages do
	// nothing: the items, the report and its per-target rows, the
	// channels and the two goroutines of the serial schedule.
	noop := func(*engine.Item, time.Time) {}
	eng := engine.New(engine.Stages{Collect: func(*engine.Item, time.Time, int) {}, Log: noop, Ingest: noop, Publish: noop}, nil)
	four := []collect.Target{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}}
	allocGate(t, "Engine.Run", 17, func() {
		eng.Run(sn.At, four, engine.Options{Concurrency: 1})
	})

	// A series point appended inside a block: nothing. The block starts
	// fresh, so no run of the gate reaches the seal.
	st := tsdb.New()
	for i := 0; i < tsdb.BlockPoints; i++ {
		st.Append("fixw", "routes", int64(i), float64(i))
	}
	pt := int64(tsdb.BlockPoints)
	allocGate(t, "tsdb.Store.Append", 0, func() {
		pt++
		st.Append("fixw", "routes", pt, float64(pt%7))
	})

	// The WAL write path for a steady-state delta record: the payload
	// encodePayload renders and the frame seglog.Log.Append wraps it in.
	wal, err := logger.OpenStore(t.TempDir(), logger.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	log := logger.New()
	log.Append(sn)
	rec := log.Append(sn)
	allocGate(t, "logger.Store.AppendDelta", 2, func() {
		if err := wal.AppendDelta("fixw", rec, 10); err != nil {
			t.Fatal(err)
		}
	})

	// A segment log that rotates on every frame: each append names,
	// creates and closes a segment (seglog.Name, Log.create), so the
	// file handles and the path strings are the figure.
	seg, _, err := seglog.Open(t.TempDir(), "gate-", "GATE0001", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(0)
	payload := []byte("payload")
	allocGate(t, "seglog.Log.Append, rotating", 8, func() {
		id++
		if _, err := seg.Append(id, payload); err != nil {
			t.Fatal(err)
		}
	})

	// One steady-state cycle of one target through the cycle core: the
	// collection above plus the scanner it streams into, the pool slot's
	// read buffer, the stages, the delta log, the processor and the
	// engine. (259 with a string per dump, a pipe and its goroutine.)
	core := cycle.New(pol, collect.StandardCommands, nil)
	at := sn.At
	one := []collect.Target{tgt}
	for i := 0; i < 3; i++ {
		at = at.Add(time.Minute)
		core.Run(at, one, engine.Options{Concurrency: 1})
	}
	allocGate(t, "cycle.Core.Run", 213, func() {
		at = at.Add(time.Minute)
		if items, _, _ := core.Run(at, one, engine.Options{Concurrency: 1}); items[0].Failed() {
			t.Fatal(items[0].Res.Err)
		}
	})
}

// cannedDialer serves recorded dumps, password-free, over a synchronous
// in-memory connection: no goroutine, no pipe, no timer and nothing
// rendered, so what a collection allocates against it is the
// collector's own. out holds each command's reply, prompt included.
type cannedDialer struct {
	prompt string
	out    map[string]string
}

func newCanned(prompt string, dumps []collect.Dump) cannedDialer {
	c := cannedDialer{prompt: prompt, out: make(map[string]string)}
	for _, d := range dumps {
		c.out[d.Command] = d.Raw + prompt
	}
	return c
}

func (c cannedDialer) Dial() (io.ReadWriteCloser, error) {
	return &cannedConn{c, c.prompt}, nil
}

// cannedConn is one canned session: the reply not yet read.
type cannedConn struct {
	cannedDialer
	pending string
}

func (c *cannedConn) Read(p []byte) (int, error) {
	if c.pending == "" {
		return 0, io.EOF
	}
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

// Write takes one command line a call, as a session sends them; "exit"
// and unknown commands get no reply.
func (c *cannedConn) Write(p []byte) (int, error) {
	c.pending = c.out[string(p[:len(p)-1])]
	return len(p), nil
}

func (c *cannedConn) Close() error                     { return nil }
func (c *cannedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *cannedConn) SetWriteDeadline(time.Time) error { return nil }

// discard is a collect.Sink that keeps nothing.
type discard struct{}

func (discard) Begin()              {}
func (discard) Dump(string, []byte) {}
func (discard) End() error          { return nil }

// TestCollectAllAllocBytes bounds in bytes what the cycle's collection of
// one target allocates: Collector.Collect streaming into the cycle's
// scanner, on a read buffer made before the measured call, as a pool
// slot's is by its first read. That is the snapshot's tables plus a
// constant for the session and the scanner, measured in one pass; a copy
// of each dump (what a Dump string costs) or a buffer regrown per session
// would land well outside it. CollectAll, which makes that copy on
// purpose, must still hand over every dump byte for byte.
func TestCollectAllAllocBytes(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	dumps := gateDumps(t)
	dumpBytes := 0
	for _, d := range dumps {
		dumpBytes += len(d.Raw)
	}
	tgt := collect.Target{Name: "fixw", Dialer: newCanned("fixw> ", dumps), Prompt: "fixw> ", Timeout: 5 * time.Second}
	got, err := collect.CollectAll(tgt, collect.StandardCommands, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range got {
		if d.Raw != dumps[i].Raw {
			t.Fatalf("%q replayed differently", d.Command)
		}
	}

	col := collect.NewCollector(collect.DefaultPolicy())
	col.Track(tgt.Name)
	var buf collect.ReadBuffer
	collectOnce := func() *tables.Scanner {
		sc := &tables.Scanner{Target: tgt.Name, Prompt: tgt.Prompt}
		if res := col.Collect(tgt, collect.StandardCommands, time.Time{}, &buf, sc); res.Err != nil || sc.ParseErr != nil {
			t.Fatal(res.Err, sc.ParseErr)
		}
		return sc
	}
	collectOnce() // makes the read buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sc := collectOnce()
	runtime.ReadMemStats(&after)
	sn := sc.Snapshot
	tableBytes := uint64(cap(sn.Routes))*uint64(unsafe.Sizeof(tables.RouteEntry{})) +
		uint64(cap(sn.Pairs))*uint64(unsafe.Sizeof(tables.PairEntry{})) +
		uint64(cap(sn.IGMP))*uint64(unsafe.Sizeof(tables.IGMPEntry{})) +
		uint64(cap(sn.SAs))*uint64(unsafe.Sizeof(tables.SAEntry{})) +
		uint64(cap(sn.MBGP))*uint64(unsafe.Sizeof(tables.MBGPEntry{}))
	allocated := after.TotalAlloc - before.TotalAlloc
	if gate := tableBytes*9/8 + 8<<10; allocated > gate {
		t.Errorf("Collector.Collect allocated %d bytes for %d bytes of tables (%d bytes of dumps), gate is %d", allocated, tableBytes, dumpBytes, gate)
	}
	t.Logf("Collector.Collect: %d bytes allocated for %d bytes of tables, %d bytes of dumps", allocated, tableBytes, dumpBytes)
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
	testfault.Deadline(t, testfault.Limit)
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
// what cannot be derived from the rest of it and copies nothing the
// core will not write again, so its cost must depend neither on the
// size of the target's route table nor on how many cycles have been
// logged. (It used to copy the stability tracker, the route set and the
// whole delta log: about a hundred times more for the large target than
// for the small one, and more every cycle.) History is held at two
// cycles beside cycle 20: one tsdb block later, the same point of the
// series heads' sawtooth (they grow to tsdb.BlockPoints points and
// start over), and cycle 250, whose heads are almost full, so an export
// that copies the heads fails it (10.2 KB at cycle 20 against 84 KB at
// cycle 250 when it did). Each figure is the least of several exports.
func TestWorkerCheckpointAllocBytes(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	const routeCmd = "show ip dvmrp route"
	dumps := gateDumps(t)
	sizes := map[string]int{"large": 4000, "small": 40}
	routers := make(map[string]cannedDialer)
	var targets []collect.Target
	for _, name := range []string{"large", "small"} {
		routers[name] = newCanned(name+"> ", dumps)
		targets = append(targets, collect.Target{Name: name, Dialer: routers[name], Prompt: name + "> ", Timeout: 5 * time.Second})
	}
	core := cycle.New(collect.DefaultPolicy(), collect.StandardCommands, nil)

	exportBytes := func(at time.Time, tgt collect.Target) uint64 {
		least := ^uint64(0)
		for run := 0; run < 4; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ck := core.Export(at, []collect.Target{tgt})
			runtime.ReadMemStats(&after)
			if len(ck.Logs[tgt.Name].Records) == 0 || ck.Proc[tgt.Name] == nil {
				t.Fatalf("%s: checkpoint is missing state: %+v", tgt.Name, ck)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}

	const early, full, late = 20, 250, 20 + tsdb.BlockPoints
	var largeEarly uint64
	at := time.Date(2001, 9, 3, 0, 0, 0, 0, time.UTC)
	for c := 1; c <= late; c++ {
		at = at.Add(30 * time.Minute)
		for name, r := range routers {
			r.out[routeCmd] = string(dvmrpRouteDump(sizes[name], time.Duration(c)*30*time.Minute)) + r.prompt
		}
		items, _, _ := core.Run(at, targets, engine.Options{Concurrency: 1})
		for _, it := range items {
			if it.Failed() || len(it.Snapshot.Routes) != sizes[it.Target.Name] {
				t.Fatalf("cycle %d: %s did not collect its %d routes: %v", c, it.Target.Name, sizes[it.Target.Name], it.Res.Err)
			}
		}
		if c != early && c != full && c != late {
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
			t.Errorf("Export allocated %d bytes at cycle %d and %d at cycle %d; gate is %d — the checkpoint scales with history length", large, c, largeEarly, early, gate)
		}
	}
}

// leastAllocBytes is the least of four calls' allocated bytes.
func leastAllocBytes(fn func()) uint64 {
	least := ^uint64(0)
	for run := 0; run < 4; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestWriteFileAllocBytes: seglog.WriteFile writes the header and then
// the caller's payload, so a 1 MiB payload costs the header, the path
// strings and the file handles, not a second megabyte. (Regression: it
// once copied header and payload into one buffer before writing.)
func TestWriteFileAllocBytes(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	path := filepath.Join(t.TempDir(), "ckpt")
	payload := make([]byte, 1<<20)
	got := leastAllocBytes(func() {
		if err := seglog.WriteFile(path, "GATE0001", payload); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 4<<10 {
		t.Errorf("WriteFile of a 1 MiB payload allocated %d bytes, gate is %d", got, 4<<10)
	}
	t.Logf("WriteFile of a 1 MiB payload: %d bytes", got)
}

// TestCheckpointAllocFlatInHistory holds Store.WriteCheckpoint to a
// fixed number of allocations whatever the history's length, and its
// bytes to 1.3 times the file it writes plus 4 KiB for the paths, the
// file handles and the directory listing: the body is encoded by hand
// into one buffer sized from the previous checkpoint. (Regression: gob
// allocated per record, and about seven times the file in bytes.)
func TestCheckpointAllocFlatInHistory(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	a, b := counterTables(40)
	at := time.Date(2001, 9, 3, 0, 0, 0, 0, time.UTC)
	routes := make(tables.RouteTable, 60)
	for i := range routes {
		routes[i] = tables.RouteEntry{Prefix: addr.PrefixFrom(addr.IP(uint32(i)<<16), 16), Metric: 1 + i%5, Since: at}
	}
	checkpoint := func(records int) (allocs float64, bytes, file uint64) {
		st, err := logger.OpenStore(t.TempDir(), logger.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		l := logger.New()
		for c := 0; c < records; c++ {
			sn := &tables.Snapshot{Target: "rp", At: at.Add(time.Duration(c) * time.Minute), Pairs: a, Routes: routes}
			if c%2 == 1 {
				sn.Pairs = b
				sn.Routes = routes[c%7:]
			}
			l.Append(sn)
		}
		write := func() {
			if err := st.WriteCheckpoint(l, []byte("extra"), at); err != nil {
				t.Fatal(err)
			}
		}
		write()
		allocs = testing.AllocsPerRun(10, write)
		return allocs, leastAllocBytes(write), uint64(st.Stats().CheckpointBytes)
	}
	shortAllocs, shortBytes, shortFile := checkpoint(100)
	longAllocs, longBytes, longFile := checkpoint(1000)
	t.Logf("WriteCheckpoint: %.0f allocs and %d bytes for a %d-byte file at 100 records, %.0f and %d for %d at 1000",
		shortAllocs, shortBytes, shortFile, longAllocs, longBytes, longFile)
	if longAllocs > shortAllocs+2 {
		t.Errorf("WriteCheckpoint made %.0f allocations at 100 records and %.0f at 1000; gate is %.0f", shortAllocs, longAllocs, shortAllocs+2)
	}
	for _, c := range [][2]uint64{{shortBytes, shortFile}, {longBytes, longFile}} {
		if gate := c[1]*13/10 + 4<<10; c[0] > gate {
			t.Errorf("WriteCheckpoint allocated %d bytes for a %d-byte file; gate is %d", c[0], c[1], gate)
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
	testfault.Deadline(t, testfault.Limit)
	m := mantra.New()
	m.AddTarget(collect.Target{Name: "fixw", Dialer: newCanned("fixw> ", nil), Prompt: "fixw> "})
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
		p.Publish()
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
	testfault.Deadline(t, testfault.Limit)
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
	allocGate(t, "Logger.Append + ObserveDelta steady state", 0, cycle)

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
	testfault.Deadline(t, testfault.Limit)
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
	testfault.Deadline(t, testfault.Limit)
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
