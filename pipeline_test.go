package mantra_test

// Equivalence tests for the cycle engine: the pipelined schedule must
// produce artifacts identical to the serial path — same series, same
// anomalies, same health ledger, same delta log, same archive WAL
// bytes — for the same fault-injected scenario. The reorder buffer is
// what makes this hold; these tests are what keep it honest.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/core/logger"
	"repro/internal/core/process"
	"repro/internal/core/shard"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/testfault"
)

// archiveEquivCfg disables checkpoints (each prunes the segments behind
// it) and fsyncs every append, so the WAL segments on disk are the
// complete, comparable archive of the run.
func archiveEquivCfg(dir string) mantra.ArchiveConfig {
	return mantra.ArchiveConfig{
		Dir:             dir,
		CheckpointEvery: 1 << 30,
		SyncEveryAppend: true,
	}
}

// walBytes concatenates a run's WAL segments in name order.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	if len(segs) == 0 {
		t.Fatalf("no WAL segments under %s", dir)
	}
	var out []byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// seriesDigest hashes every target/metric series of a run — name,
// points (time, value bits) and gap stamps, in a fixed order.
func seriesDigest(m *mantra.Monitor, targets []string) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, target := range targets {
		for _, metric := range process.AllMetrics {
			fmt.Fprintf(h, "%s/%s\n", target, metric)
			s := m.Series(target, metric)
			if s == nil {
				continue
			}
			put(uint64(len(s.Times)))
			for i, at := range s.Times {
				put(uint64(at.UnixNano()))
				put(math.Float64bits(s.Values[i]))
			}
			put(uint64(len(s.Gaps)))
			for _, at := range s.Gaps {
				put(uint64(at.UnixNano()))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reconstructDigest reopens an archive directory, recovers it and hashes
// every target's pair and route tables as reconstructed at every cycle:
// each field of each row, floats by their bits, and for each Since the
// uptime At − Since (0 for none) and the instant, as rows carried both.
func reconstructDigest(t *testing.T, dir string) string {
	t.Helper()
	st, err := logger.OpenStore(dir, logger.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l := st.Recover().Logger
	h := sha256.New()
	put := func(vs ...uint64) {
		for _, v := range vs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	for _, target := range l.Targets() {
		for idx := 0; idx < l.Cycles(target); idx++ {
			at, _ := l.At(target, idx)
			uptime := func(since int64) uint64 {
				if since == 0 {
					return 0
				}
				return uint64(at.UnixNano() - since)
			}
			pairs, err1 := l.ReconstructPairs(target, idx)
			routes, err2 := l.ReconstructRoutes(target, idx)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s cycle %d: %v %v", target, idx, err1, err2)
			}
			fmt.Fprintf(h, "%s/%d\n", target, idx)
			put(uint64(len(pairs)))
			for _, e := range pairs {
				fmt.Fprintf(h, "%s\n", e.Flags)
				put(uint64(e.Source), uint64(e.Group), math.Float64bits(e.RateKbps), e.Packets, uptime(e.Since), uint64(e.Since))
			}
			put(uint64(len(routes)))
			for _, e := range routes {
				local := uint64(0)
				if e.Local {
					local = 1
				}
				put(uint64(e.Prefix.Addr), uint64(e.Prefix.Len), uint64(e.Gateway), local, uint64(e.Metric), uptime(e.Since), uint64(e.Since))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The serial leg's on-disk WAL bytes and in-memory series, hashed at
// the commit before the Monitor moved onto cycle.Core (frames written
// inside the Log stage). They pin that buffering frames in stage order
// and committing after the engine run reproduces those bytes exactly.
// pinnedWALDigest was re-pinned once when the pair record split into
// identity deltas and a counter column (MWAL0003): the frames changed
// shape, which is why the tables the recovered archive reconstructs are
// pinned on their own, hashed before the split.
const (
	pinnedWALDigest         = "dcede54c39a51db66b8bd993739a984ec8be9318f5fd58e384d0db81d95f7e03"
	pinnedSeriesDigest      = "fbcbc68b3c8c682cee275c644864f4488bc73b6a09be4d1eef74411b60c126e3"
	pinnedReconstructDigest = "aba972df918ae5ea7806604530524bd0c7173b85dbb50c073db5151d2a2a8be3"
)

// TestPipelinedCycleMatchesSerial is the engine's golden equivalence
// test: the same fault-injected two-router scenario run serially and
// pipelined must agree on every artifact the monitor produces, and the
// serial leg must reproduce the pinned bytes.
func TestPipelinedCycleMatchesSerial(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	profile := router.FaultProfile{
		RefuseConn:  0.08,
		RejectLogin: 0.06,
		Truncate:    0.06,
		Garble:      0.06,
		Drop:        0.05,
	}
	policy := collect.Policy{
		MaxAttempts:      2,
		BreakerThreshold: 3,
		BreakerCooldown:  90 * time.Minute,
		Sleep:            func(time.Duration) {},
	}

	type run struct {
		name  string
		cycle func(m *mantra.Monitor, now time.Time) ([]mantra.CycleStats, error)
	}
	runs := []run{
		{"serial", func(m *mantra.Monitor, now time.Time) ([]mantra.CycleStats, error) { return m.RunCycle(now) }},
		{"pipelined", func(m *mantra.Monitor, now time.Time) ([]mantra.CycleStats, error) { return m.RunCycleConcurrent(now) }},
	}

	const cycles = 60
	type outcome struct {
		dir     string
		mon     *mantra.Monitor
		stats   [][]mantra.CycleStats
		results [][]mantra.CollectResult
	}
	outcomes := make([]outcome, len(runs))
	for ri, r := range runs {
		// Identically seeded networks produce identical fault sequences,
		// so every run faces the same scenario.
		n, m, _ := chaosMonitor(t, profile, policy)
		m.SetConcurrency(2)
		dir := t.TempDir()
		if _, err := m.EnableArchive(archiveEquivCfg(dir)); err != nil {
			t.Fatal(err)
		}
		o := outcome{dir: dir, mon: m}
		for i := 0; i < cycles; i++ {
			n.Step()
			st, _ := r.cycle(m, n.Now())
			o.stats = append(o.stats, st)
			o.results = append(o.results, m.LastResults())
		}
		outcomes[ri] = o
	}

	ref := outcomes[0]
	walSum := sha256.Sum256(walBytes(t, ref.dir))
	if got := hex.EncodeToString(walSum[:]); got != pinnedWALDigest {
		t.Errorf("serial WAL digest = %s, want pinned %s", got, pinnedWALDigest)
	}
	if got := seriesDigest(ref.mon, []string{"fixw", "ucsb-r1"}); got != pinnedSeriesDigest {
		t.Errorf("serial series digest = %s, want pinned %s", got, pinnedSeriesDigest)
	}
	if got := reconstructDigest(t, ref.dir); got != pinnedReconstructDigest {
		t.Errorf("recovered archive's reconstruction digest = %s, want pinned %s", got, pinnedReconstructDigest)
	}
	for ri := 1; ri < len(outcomes); ri++ {
		name, o := runs[ri].name, outcomes[ri]

		// Per-cycle statistics and per-target outcomes, cycle by cycle.
		for i := 0; i < cycles; i++ {
			if !reflect.DeepEqual(ref.stats[i], o.stats[i]) {
				t.Fatalf("%s: cycle %d stats diverge:\nserial: %+v\n%s: %+v",
					name, i, ref.stats[i], name, o.stats[i])
			}
			if !resultsEqual(ref.results[i], o.results[i]) {
				t.Fatalf("%s: cycle %d results diverge:\nserial: %+v\n%s: %+v",
					name, i, ref.results[i], name, o.results[i])
			}
		}

		// Every series, point for point, gap for gap.
		for _, target := range []string{"fixw", "ucsb-r1"} {
			for _, metric := range process.AllMetrics {
				a := ref.mon.Series(target, metric)
				b := o.mon.Series(target, metric)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s: series %s/%s diverges", name, target, metric)
				}
			}
		}

		// Anomaly feed, health ledger, delta log shape.
		if !reflect.DeepEqual(ref.mon.Anomalies(), o.mon.Anomalies()) {
			t.Errorf("%s: anomaly feeds diverge", name)
		}
		if !reflect.DeepEqual(ref.mon.Health(), o.mon.Health()) {
			t.Errorf("%s: health ledgers diverge:\nserial: %+v\n%s: %+v",
				name, ref.mon.Health(), name, o.mon.Health())
		}
		for _, target := range []string{"fixw", "ucsb-r1"} {
			if a, b := ref.mon.Log().Cycles(target), o.mon.Log().Cycles(target); a != b {
				t.Errorf("%s: %s logged cycles %d != %d", name, target, b, a)
			}
		}

		// The durable archive: byte-identical WAL segments.
		if a, b := walBytes(t, ref.dir), walBytes(t, o.dir); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: archive WAL bytes diverge (%d vs %d bytes)", name, len(a), len(b))
		}

		// Route-stability trackers observed the same history.
		a, b := ref.mon.RouteStability("ucsb-r1"), o.mon.RouteStability("ucsb-r1")
		if a == nil || b == nil || a.Cycles() != b.Cycles() || !reflect.DeepEqual(a.Summary(), b.Summary()) {
			t.Errorf("%s: stability trackers diverge", name)
		}
	}
}

// walEvent is one recovered WAL frame, reduced to what orders it.
type walEvent struct {
	Target string
	At     time.Time
	Gap    bool
}

// recoveredEvents reopens an archive directory and lists its frames in
// on-disk order.
func recoveredEvents(t *testing.T, dir string) []walEvent {
	t.Helper()
	st, err := logger.OpenStore(dir, logger.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var out []walEvent
	for _, ev := range st.Recover().Events {
		out = append(out, walEvent{Target: ev.Target, At: ev.At.UTC(), Gap: ev.Gap})
	}
	return out
}

// TestShardWALMatchesMonitorFrameOrder: a Monitor and a one-shard
// Supervisor run the same core, so the same fault-injected fleet must
// leave the same frame sequence on disk. The shard path used to write
// each cycle's deltas before its gaps — out of stage order whenever an
// earlier-registered target failed.
func TestShardWALMatchesMonitorFrameOrder(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	profile := router.FaultProfile{RefuseConn: 0.2, RejectLogin: 0.1, Truncate: 0.1}
	policy := collect.Policy{
		MaxAttempts:      1,
		BreakerThreshold: 3,
		BreakerCooldown:  90 * time.Minute,
		Sleep:            func(time.Duration) {},
	}
	const cycles = 40

	monDir := t.TempDir()
	n, m, _ := chaosMonitor(t, profile, policy)
	if _, err := m.EnableArchive(archiveEquivCfg(monDir)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cycles; i++ {
		n.Step()
		m.RunCycle(n.Now())
	}

	// The same seeded network again, its targets registered on a
	// one-shard supervisor in the same order.
	shardDir := t.TempDir()
	n, _, faulty := chaosMonitor(t, profile, policy)
	s, err := shard.New(shard.Config{Shards: 1, Policy: policy, DataDir: shardDir, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Register(collect.Target{Name: "fixw", Dialer: collect.PipeDialer{Router: faulty}, Password: "pw", Prompt: "fixw> ", Timeout: 100 * time.Millisecond})
	s.Register(collect.Target{Name: "ucsb-r1", Dialer: collect.PipeDialer{Router: n.Router("ucsb-r1")}, Password: "pw", Prompt: "ucsb-r1> ", Timeout: 5 * time.Second})
	for i := 0; i < cycles; i++ {
		n.Step()
		res, err := s.RunCycle(n.Now())
		if err != nil || len(res.WALErrs) > 0 {
			t.Fatalf("cycle %d: %v %v", i, err, res.WALErrs)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	mon := recoveredEvents(t, monDir)
	shd := recoveredEvents(t, filepath.Join(shardDir, "shard-00"))
	gaps := 0
	for _, ev := range mon {
		if ev.Gap {
			gaps++
		}
	}
	if len(mon) != 2*cycles || gaps == 0 || gaps == len(mon) {
		t.Fatalf("monitor archive has %d frames, %d gaps; want %d frames mixing both kinds", len(mon), gaps, 2*cycles)
	}
	if len(shd) != len(mon) {
		t.Fatalf("shard archive has %d frames, monitor %d", len(shd), len(mon))
	}
	for i := range mon {
		if mon[i] != shd[i] {
			t.Fatalf("frame %d diverges: monitor %+v, shard %+v", i, mon[i], shd[i])
		}
	}
}

// resultsEqual compares CollectResult slices, matching errors by string
// (errors.Is identity differs across monitors by construction).
func resultsEqual(a, b []mantra.CollectResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Target != b[i].Target || a[i].Status != b[i].Status || a[i].Attempts != b[i].Attempts {
			return false
		}
		ae, be := "", ""
		if a[i].Err != nil {
			ae = a[i].Err.Error()
		}
		if b[i].Err != nil {
			be = b[i].Err.Error()
		}
		if ae != be {
			return false
		}
		if (a[i].Stats == nil) != (b[i].Stats == nil) {
			return false
		}
		if a[i].Stats != nil && *a[i].Stats != *b[i].Stats {
			return false
		}
	}
	return true
}

// downDialer always fails to connect.
type downDialer struct{}

func (downDialer) Dial() (io.ReadWriteCloser, error) {
	return nil, errors.New("connection refused")
}

// TestSetCollectPolicyCarriesState is the regression test for the
// mid-run policy change: swapping the policy used to silently discard
// the per-target health ledger and breaker positions; it must carry
// them into the new collector. ResetCollectState keeps the old wipe as
// an explicit operation.
func TestSetCollectPolicyCarriesState(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	m := mantra.New()
	m.SetCollectPolicy(collect.Policy{
		MaxAttempts:      1,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
		Sleep:            func(time.Duration) {},
	})
	m.AddTarget(mantra.Target{
		Name:    "dead",
		Dialer:  downDialer{},
		Prompt:  "dead> ",
		Timeout: 50 * time.Millisecond,
	})

	now := sim.Epoch
	for i := 0; i < 3; i++ {
		now = now.Add(time.Minute)
		if _, err := m.RunCycle(now); err == nil {
			t.Fatal("all-failed cycle did not err")
		}
	}
	before := m.Health()[0]
	if before.Breaker != collect.BreakerOpen || before.ConsecutiveFailures != 3 {
		t.Fatalf("setup: health = %+v, want open breaker with 3 consecutive failures", before)
	}

	// The mid-run policy change: new thresholds, same history.
	m.SetCollectPolicy(collect.Policy{
		MaxAttempts:      2,
		BreakerThreshold: 10,
		BreakerCooldown:  time.Hour,
		Sleep:            func(time.Duration) {},
	})
	after := m.Health()[0]
	if after.Breaker != collect.BreakerOpen {
		t.Errorf("policy change dropped the open breaker: %+v", after)
	}
	if after.ConsecutiveFailures != before.ConsecutiveFailures ||
		after.TotalFailures != before.TotalFailures ||
		after.LastError != before.LastError {
		t.Errorf("policy change discarded the health ledger:\nbefore: %+v\nafter:  %+v", before, after)
	}

	// The carried breaker keeps cooling down under the new policy: the
	// next cycle inside the cooldown must still be skipped unprobed.
	now = now.Add(time.Minute)
	if _, err := m.RunCycle(now); err == nil {
		t.Fatal("all-failed cycle did not err")
	}
	if res := m.LastResults()[0]; res.Status != collect.StatusBreakerOpen || res.Attempts != 0 {
		t.Errorf("carried breaker did not skip: %+v", res)
	}

	// The deliberate wipe is still available, as an explicit call.
	m.ResetCollectState()
	wiped := m.Health()[0]
	if wiped.Breaker != collect.BreakerClosed || wiped.ConsecutiveFailures != 0 || wiped.TotalFailures != 0 {
		t.Errorf("ResetCollectState did not wipe: %+v", wiped)
	}
}

// TestEngineStatsExposed: the /stats instrumentation reflects the
// cycles run and carries per-stage observations for every target.
func TestEngineStatsExposed(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	n, m := newMonitoredNetwork(t)
	const cycles = 4
	for i := 0; i < cycles; i++ {
		n.Step()
		if _, err := m.RunCycleConcurrent(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	st := m.EngineStats()
	if st.Cycles != cycles {
		t.Errorf("stats cycles = %d", st.Cycles)
	}
	if st.Concurrency != 2 {
		t.Errorf("stats concurrency = %d, want min(8, 2 targets)", st.Concurrency)
	}
	if len(st.Targets) != 2 {
		t.Fatalf("stats targets = %d", len(st.Targets))
	}
	for _, ts := range st.Targets {
		if ts.Cycles != cycles || ts.Successes != cycles {
			t.Errorf("%s: %+v", ts.Target, ts)
		}
	}
	rep := m.LastCycleReport()
	if rep == nil || rep.Cycle != cycles || rep.Targets != 2 || rep.Failed != 0 {
		t.Fatalf("last report = %+v", rep)
	}
	if rep.Stages == nil || rep.Stages["collect"].Count != 2 {
		t.Errorf("last report stages = %+v", rep.Stages)
	}
}
