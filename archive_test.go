package mantra_test

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/core/logger"
	"repro/internal/core/process"
	"repro/internal/core/tables"
	"repro/internal/core/tsdb"
	"repro/internal/netsim"
	"repro/internal/router"
	"repro/internal/testfault"
)

// rewire registers the network's routers as targets on a fresh monitor —
// the restart path: a new process, the same routers.
func rewire(m *mantra.Monitor, n *netsim.Network, names ...string) {
	for _, name := range names {
		m.AddTarget(mantra.Target{
			Name:     name,
			Dialer:   collect.PipeDialer{Router: n.Router(name)},
			Password: "pw",
			Prompt:   name + "> ",
		})
	}
}

// compareMonitorState asserts the recovered monitor matches the reference
// on everything the archive promises to restore: series (points and
// gaps), delta-log reconstructions, gap markers, anomalies, stability
// trackers, and the health ledger.
func compareMonitorState(t *testing.T, want, got *mantra.Monitor, targets []string) {
	t.Helper()
	for _, tgt := range targets {
		for _, metric := range process.AllMetrics {
			w, g := want.Series(tgt, metric), got.Series(tgt, metric)
			if (w == nil) != (g == nil) {
				t.Fatalf("%s/%s: series presence diverges", tgt, metric)
			}
			if w == nil {
				continue
			}
			if !reflect.DeepEqual(w.Times, g.Times) || !reflect.DeepEqual(w.Values, g.Values) {
				t.Errorf("%s/%s: series points diverge: %d/%d points", tgt, metric, w.Len(), g.Len())
			}
			if !reflect.DeepEqual(w.Gaps, g.Gaps) {
				t.Errorf("%s/%s: series gaps diverge: %v vs %v", tgt, metric, w.Gaps, g.Gaps)
			}
		}
		if w, g := want.Log().Cycles(tgt), got.Log().Cycles(tgt); w != g {
			t.Fatalf("%s: logged cycles %d, recovered %d", tgt, w, g)
		}
		for i := 0; i < want.Log().Cycles(tgt); i++ {
			wp, _ := want.Log().ReconstructPairs(tgt, i)
			gp, err := got.Log().ReconstructPairs(tgt, i)
			if err != nil || !reflect.DeepEqual(wp, gp) {
				t.Errorf("%s cycle %d: reconstructed pairs diverge (%v)", tgt, i, err)
			}
			wr, _ := want.Log().ReconstructRoutes(tgt, i)
			gr, err := got.Log().ReconstructRoutes(tgt, i)
			if err != nil || !reflect.DeepEqual(wr, gr) {
				t.Errorf("%s cycle %d: reconstructed routes diverge (%v)", tgt, i, err)
			}
		}
		if !reflect.DeepEqual(want.Log().Gaps(tgt), got.Log().Gaps(tgt)) {
			t.Errorf("%s: log gap markers diverge", tgt)
		}
		ws, gs := want.RouteStability(tgt), got.RouteStability(tgt)
		if (ws == nil) != (gs == nil) {
			t.Fatalf("%s: stability tracker presence diverges", tgt)
		}
		if ws != nil {
			if ws.Cycles() != gs.Cycles() || !reflect.DeepEqual(ws.Stats(), gs.Stats()) {
				t.Errorf("%s: stability stats diverge", tgt)
			}
		}
	}
	if !reflect.DeepEqual(want.Anomalies(), got.Anomalies()) {
		t.Errorf("anomalies diverge: %v vs %v", want.Anomalies(), got.Anomalies())
	}
	wh, gh := want.Health(), got.Health()
	if len(wh) != len(gh) {
		t.Fatalf("health entries: %d vs %d", len(wh), len(gh))
	}
	for i := range wh {
		w, g := wh[i], gh[i]
		if w.Target != g.Target || w.Breaker != g.Breaker ||
			w.ConsecutiveFailures != g.ConsecutiveFailures ||
			w.TotalCycles != g.TotalCycles || w.TotalFailures != g.TotalFailures ||
			!w.LastSuccess.Equal(g.LastSuccess) {
			t.Errorf("health[%s] diverges:\nwant %+v\ngot  %+v", w.Target, w, g)
		}
	}
}

// TestArchiveCrashRecovery is the end-to-end crash test: run cycles with
// the archive enabled, abandon the monitor without closing (the crash),
// and verify a fresh monitor recovers the full pre-crash state and keeps
// collecting — ending where an uninterrupted twin without an archive
// ends: series, route churn included, logs, stability statistics,
// anomalies and health.
func TestArchiveCrashRecovery(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	dir := t.TempDir()
	n, m1 := newMonitoredNetwork(t)
	if _, err := m1.EnableArchive(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 3}); err != nil {
		t.Fatal(err)
	}
	twin := mantra.New()
	rewire(twin, n, "fixw", "ucsb-r1")
	for i := 0; i < 7; i++ {
		n.Step()
		if _, err := m1.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: m1 is abandoned, no CloseArchive, no final checkpoint.

	m2 := mantra.New()
	rewire(m2, n, "fixw", "ucsb-r1")
	report, err := m2.EnableArchive(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 3, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Resumed {
		t.Fatal("recovery did not resume")
	}
	if report.Stats.TornTail {
		t.Fatalf("clean crash reported torn tail: %+v", report.Stats)
	}
	// CheckpointEvery=3 over 7 cycles → checkpoint at cycle 6, one cycle
	// of WAL tail to replay for each target.
	if !report.Stats.CheckpointLoaded || report.CyclesReplayed != 2 {
		t.Fatalf("report = %+v", report)
	}
	compareMonitorState(t, m1, m2, []string{"fixw", "ucsb-r1"})
	// A recovered target's latest snapshot is the tables the recovered
	// delta log holds as of its last cycle.
	for _, name := range report.Targets {
		want, ok := m2.Log().Materialized(name)
		if got := m2.Latest(name); !ok || got == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: latest snapshot after recovery is %+v, want the log's materialized tables %+v", name, got, want)
		}
	}
	if m2.Latest("fixw") == nil || m2.Latest("ucsb-r1") == nil {
		t.Fatal("latest snapshots not restored")
	}

	// The recovered monitor must keep working: more cycles extend the
	// series and the archive.
	for i := 0; i < 2; i++ {
		n.Step()
		if _, err := m2.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if got := m2.Series("fixw", mantra.MetricSessions).Len(); got != 9 {
		t.Fatalf("series after resume = %d points, want 9", got)
	}
	compareMonitorState(t, twin, m2, []string{"fixw", "ucsb-r1"})
	if err := m2.CloseArchive(n.Now()); err != nil {
		t.Fatal(err)
	}

	// A third restart sees the continued history.
	m3 := mantra.New()
	rewire(m3, n, "fixw", "ucsb-r1")
	if _, err := m3.EnableArchive(mantra.ArchiveConfig{Dir: dir, Resume: true}); err != nil {
		t.Fatal(err)
	}
	compareMonitorState(t, m2, m3, []string{"fixw", "ucsb-r1"})
}

// TestArchiveCrashRecoveryWithFaults runs the crash test against a
// fault-injected target so the archive carries gap markers, failure
// health and open breakers across the crash.
func TestArchiveCrashRecoveryWithFaults(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	dir := t.TempDir()
	n, m1, _ := chaosMonitor(t, router.FaultProfile{RefuseConn: 1}, collect.Policy{
		MaxAttempts:      1,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
		Sleep:            func(time.Duration) {},
	})
	if _, err := m1.EnableArchive(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		n.Step()
		_, _ = m1.RunCycle(n.Now()) // fixw degrades every cycle; that is the point
	}
	h1, _ := firstHealth(m1, "fixw")
	if h1.Breaker != collect.BreakerOpen {
		t.Fatalf("precondition: fixw breaker = %v, want open", h1.Breaker)
	}

	m2 := mantra.New()
	m2.SetCollectPolicy(collect.Policy{
		MaxAttempts:      1,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
		Sleep:            func(time.Duration) {},
	})
	rewire(m2, n, "fixw", "ucsb-r1")
	report, err := m2.EnableArchive(mantra.ArchiveConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.GapsReplayed == 0 {
		t.Fatalf("no gaps replayed: %+v", report)
	}
	compareMonitorState(t, m1, m2, []string{"fixw", "ucsb-r1"})

	h2, _ := firstHealth(m2, "fixw")
	if h2.Breaker != collect.BreakerOpen {
		t.Fatalf("breaker state lost across crash: %v", h2.Breaker)
	}
}

func firstHealth(m *mantra.Monitor, target string) (mantra.TargetHealth, bool) {
	for _, h := range m.Health() {
		if h.Target == target {
			return h, true
		}
	}
	return mantra.TargetHealth{}, false
}

// TestArchiveTornTailRecovery damages the archive the way a mid-write
// crash does — a partial record at the tail — and verifies recovery
// repairs it, reports it, and loses nothing but that partial record.
func TestArchiveTornTailRecovery(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	dir := t.TempDir()
	n, m1 := newMonitoredNetwork(t)
	if _, err := m1.EnableArchive(mantra.ArchiveConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		n.Step()
		if _, err := m1.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	// Crash mid-append: garbage after the last whole record.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%v)", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x55, 0x00, 0x00, 0x00, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2 := mantra.New()
	rewire(m2, n, "fixw", "ucsb-r1")
	report, err := m2.EnableArchive(mantra.ArchiveConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Stats.TornTail || report.Stats.TruncatedBytes != 6 {
		t.Fatalf("torn tail not reported: %+v", report.Stats)
	}
	compareMonitorState(t, m1, m2, []string{"fixw", "ucsb-r1"})

	// The repair must also be visible through the HTTP archive endpoint.
	srv := httptest.NewServer(m2.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/archive")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Recovery struct {
			Stats struct {
				TornTail bool `json:"torn_tail"`
			} `json:"stats"`
		} `json:"recovery"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if !status.Recovery.Stats.TornTail {
		t.Error("/archive does not report the repaired tail")
	}
}

// TestArchiveTruncatedTailLosesAtMostOneCycle chops bytes off the tail
// segment — torn mid-record — and verifies the recovered state is a clean
// prefix and the monitor keeps running.
func TestArchiveTruncatedTailLosesAtMostOneCycle(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	dir := t.TempDir()
	n, m1 := newMonitoredNetwork(t)
	if _, err := m1.EnableArchive(mantra.ArchiveConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		n.Step()
		if _, err := m1.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	seg := segs[len(segs)-1]
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-37); err != nil {
		t.Fatal(err)
	}

	m2 := mantra.New()
	rewire(m2, n, "fixw", "ucsb-r1")
	report, err := m2.EnableArchive(mantra.ArchiveConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Stats.TornTail {
		t.Fatalf("truncation not reported: %+v", report.Stats)
	}
	// The cut lands inside the last record: only the final target's final
	// cycle may be lost.
	lost := 0
	for _, tgt := range []string{"fixw", "ucsb-r1"} {
		w, g := m1.Log().Cycles(tgt), m2.Log().Cycles(tgt)
		if g > w || w-g > 1 {
			t.Fatalf("%s: recovered %d of %d cycles", tgt, g, w)
		}
		lost += w - g
	}
	if lost != 1 {
		t.Fatalf("lost %d cycles, want exactly the torn record", lost)
	}
	// Recovered cycles must reconstruct identically.
	for _, tgt := range []string{"fixw", "ucsb-r1"} {
		for i := 0; i < m2.Log().Cycles(tgt); i++ {
			wp, _ := m1.Log().ReconstructPairs(tgt, i)
			gp, err := m2.Log().ReconstructPairs(tgt, i)
			if err != nil || !reflect.DeepEqual(wp, gp) {
				t.Fatalf("%s cycle %d: surviving data corrupted (%v)", tgt, i, err)
			}
		}
	}
	// And the monitor keeps collecting on the repaired archive.
	n.Step()
	if _, err := m2.RunCycle(n.Now()); err != nil {
		t.Fatal(err)
	}
	if err := m2.CloseArchive(n.Now()); err != nil {
		t.Fatal(err)
	}
}

// TestArchiveRefusesSilentOverwrite pins the operator-safety contract:
// existing data plus Resume=false is an error, not a wipe.
func TestArchiveRefusesSilentOverwrite(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	dir := t.TempDir()
	n, m1 := newMonitoredNetwork(t)
	if _, err := m1.EnableArchive(mantra.ArchiveConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	n.Step()
	if _, err := m1.RunCycle(n.Now()); err != nil {
		t.Fatal(err)
	}
	if err := m1.CloseArchive(n.Now()); err != nil {
		t.Fatal(err)
	}

	m2 := mantra.New()
	rewire(m2, n, "fixw", "ucsb-r1")
	if _, err := m2.EnableArchive(mantra.ArchiveConfig{Dir: dir}); !errors.Is(err, mantra.ErrArchiveExists) {
		t.Fatalf("err = %v, want ErrArchiveExists", err)
	}
	// The refusal must not have damaged the archive.
	m3 := mantra.New()
	rewire(m3, n, "fixw", "ucsb-r1")
	if _, err := m3.EnableArchive(mantra.ArchiveConfig{Dir: dir, Resume: true}); err != nil {
		t.Fatal(err)
	}
	if m3.Log().Cycles("fixw") != 1 {
		t.Fatalf("cycles = %d after refused overwrite", m3.Log().Cycles("fixw"))
	}
}

// TestArchiveRefusesAnotherFormatVersion: resuming an archive written in
// an earlier format must fail with ErrArchiveVersion and leave every file
// as it was, not repair the unreadable segments away and start empty.
// Each kind of file is aged alone: the WAL segments, and the checkpoints
// as the three previous formats wrote them (MCKP0004 to MCKP0006, gob
// bodies this build no longer decodes).
func TestArchiveRefusesAnotherFormatVersion(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	for _, aged := range []struct{ glob, magic string }{
		{"wal-*.seg", "MWAL0002"}, {"ckpt-*.ck", "MCKP0004"}, {"ckpt-*.ck", "MCKP0005"}, {"ckpt-*.ck", "MCKP0006"},
	} {
		glob, magic := aged.glob, aged.magic
		t.Run(magic, func(t *testing.T) {
			dir := t.TempDir()
			n, m1 := newMonitoredNetwork(t)
			if _, err := m1.EnableArchive(mantra.ArchiveConfig{Dir: dir}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				n.Step()
				if _, err := m1.RunCycle(n.Now()); err != nil {
					t.Fatal(err)
				}
			}
			if err := m1.CloseArchive(n.Now()); err != nil {
				t.Fatal(err)
			}
			paths, _ := filepath.Glob(filepath.Join(dir, glob))
			if len(paths) == 0 {
				t.Fatalf("no %s file to age", glob)
			}
			for _, p := range paths {
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, append([]byte(magic), data[len(magic):]...), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			files := func() map[string]string {
				out := make(map[string]string)
				filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
					if err == nil && !d.IsDir() {
						data, _ := os.ReadFile(path)
						out[path] = string(data)
					}
					return err
				})
				return out
			}
			before := files()

			m2 := mantra.New()
			rewire(m2, n, "fixw", "ucsb-r1")
			if _, err := m2.EnableArchive(mantra.ArchiveConfig{Dir: dir, Resume: true}); !errors.Is(err, logger.ErrArchiveVersion) {
				t.Fatalf("err = %v, want ErrArchiveVersion", err)
			}
			if after := files(); !reflect.DeepEqual(after, before) {
				t.Fatal("the refused resume changed the archive's files")
			}
		})
	}
}

// TestArchiveResumeKeepsLiveSettings: the ring cap is the resuming
// process's setting, not the one the previous process checkpointed —
// set before EnableArchive, it holds after it and applies to what it
// restored.
func TestArchiveResumeKeepsLiveSettings(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	dir := t.TempDir()
	n, m1 := newMonitoredNetwork(t)
	if _, err := m1.EnableArchive(mantra.ArchiveConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	const cycles = 25
	for i := 0; i < cycles; i++ {
		n.Step()
		if _, err := m1.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.CloseArchive(n.Now()); err != nil {
		t.Fatal(err)
	}

	m2 := mantra.New()
	m2.SetMaxAnomalies(5)
	rewire(m2, n, "fixw", "ucsb-r1")
	if _, err := m2.EnableArchive(mantra.ArchiveConfig{Dir: dir, Resume: true}); err != nil {
		t.Fatal(err)
	}
	p := m2.Processor()
	if p.MaxAnomalies != 5 {
		t.Fatalf("after resume: MaxAnomalies %d, want 5", p.MaxAnomalies)
	}
	if got := len(m2.Anomalies()); got > 5 {
		t.Fatalf("restored ring holds %d anomalies, cap 5", got)
	}
	if w, g := m1.AnomalyRollup().Total, m2.AnomalyRollup().Total; w != g {
		t.Fatalf("rollup total %d after resume, %d before", g, w)
	}
}

// TestArchiveRemovedTargetSurvivesCrash: a removed target's series,
// delta log and anomalies outlive its membership, so a checkpoint taken
// after the removal must carry them to the recovered monitor, which
// never registers the target again.
func TestArchiveRemovedTargetSurvivesCrash(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	dir := t.TempDir()
	n, m1 := newMonitoredNetwork(t)
	if _, err := m1.EnableArchive(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if i == 4 {
			m1.RemoveTarget("ucsb-r1")
		}
		n.Step()
		if _, err := m1.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	// Crash after cycle 7: the checkpoint at cycle 6 postdates the removal.

	m2 := mantra.New()
	rewire(m2, n, "fixw")
	report, err := m2.EnableArchive(mantra.ArchiveConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Stats.CheckpointLoaded || report.CyclesReplayed != 1 {
		t.Fatalf("report = %+v", report)
	}
	if m2.Series("ucsb-r1", mantra.MetricRoutes).Len() != 4 {
		t.Fatal("the removed target's series did not survive the crash")
	}
	compareMonitorState(t, m1, m2, []string{"fixw", "ucsb-r1"})
}

// TestArchiveAggregateAcrossCrash verifies the synthetic aggregate view
// survives recovery like any real target.
func TestArchiveAggregateAcrossCrash(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	dir := t.TempDir()
	n, m1 := newMonitoredNetwork(t)
	m1.EnableAggregation()
	if _, err := m1.EnableArchive(mantra.ArchiveConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		n.Step()
		if _, err := m1.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}

	m2 := mantra.New()
	m2.EnableAggregation()
	rewire(m2, n, "fixw", "ucsb-r1")
	if _, err := m2.EnableArchive(mantra.ArchiveConfig{Dir: dir, Resume: true}); err != nil {
		t.Fatal(err)
	}
	compareMonitorState(t, m1, m2, []string{"fixw", "ucsb-r1", mantra.AggregateTarget})
	// The aggregate is synthetic: it must not appear in the health ledger.
	if _, ok := firstHealth(m2, mantra.AggregateTarget); ok {
		t.Error("aggregate target leaked into health ledger")
	}
}

// TestArchiveAnomalyRecovery proves detector state survives a crash: a
// resolved episode, an episode still open at the crash (with its frozen
// detection baseline), and the rollup counters are all rebuilt by
// recovery — even with a torn tail — and the recovered monitor then
// finishes the open episode exactly as an uncrashed one would.
func TestArchiveAnomalyRecovery(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	dir := t.TempDir()
	n, m1 := incidentMonitor(t, nil, "")
	if _, err := m1.EnableArchive(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 3}); err != nil {
		t.Fatal(err)
	}
	targets := []string{"fixw", "ucsb-r1", "dom00-gw"}
	cycle := func(m *mantra.Monitor) {
		t.Helper()
		n.Step()
		if _, err := m.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	countKind := func(m *mantra.Monitor, target, kind string) (total, open int) {
		for _, a := range m.Anomalies() {
			if a.Target == target && a.Kind == kind {
				total++
				if !a.Resolved {
					open++
				}
			}
		}
		return total, open
	}
	for i := 0; i < 8; i++ {
		cycle(m1)
	}
	// Incident 1 opens and fully resolves before the crash.
	sc1, err := netsim.LibraryScenario("route-leak", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.ScheduleScenario(sc1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		cycle(m1)
	}
	if total, open := countKind(m1, "fixw", "route-leak"); total != 1 || open != 0 {
		t.Fatalf("precondition: route-leak at fixw = %d total / %d open, want 1/0", total, open)
	}
	// Incident 2 is mid-flight at the crash.
	sc2, err := netsim.LibraryScenario("unicast-injection", 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.ScheduleScenario(sc2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cycle(m1)
	}
	if total, open := countKind(m1, "ucsb-r1", "route-injection"); total != 1 || open != 1 {
		t.Fatalf("precondition: route-injection at ucsb-r1 = %d total / %d open, want 1/1", total, open)
	}

	// Crash mid-incident, plus a torn tail: garbage after the last whole
	// WAL record, the signature of dying mid-append.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%v)", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x77, 0x00, 0xBE, 0xEF}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2 := mantra.New()
	rewire(m2, n, targets...)
	report, err := m2.EnableArchive(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 3, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Resumed || !report.Stats.TornTail || report.Stats.TruncatedBytes != 4 {
		t.Fatalf("recovery report = %+v / %+v", report, report.Stats)
	}
	compareMonitorState(t, m1, m2, targets)
	if !reflect.DeepEqual(m1.AnomalyRollup(), m2.AnomalyRollup()) {
		t.Errorf("rollup diverges: %+v vs %+v", m1.AnomalyRollup(), m2.AnomalyRollup())
	}

	// The frozen baseline came back with the open episode: three more
	// incident cycles must neither falsely resolve it nor open a second
	// episode against an incident-poisoned baseline.
	for i := 0; i < 3; i++ {
		cycle(m2)
	}
	if total, open := countKind(m2, "ucsb-r1", "route-injection"); total != 1 || open != 1 {
		t.Fatalf("mid-incident after recovery: %d total / %d open, want 1/1", total, open)
	}
	// The incident ends; the recovered monitor resolves the pre-crash
	// episode like an uncrashed one would.
	for i := 0; i < 4; i++ {
		cycle(m2)
	}
	total, open := countKind(m2, "ucsb-r1", "route-injection")
	if total != 1 || open != 0 {
		t.Fatalf("after incident end: %d total / %d open, want 1/0", total, open)
	}
	for _, a := range m2.Anomalies() {
		if a.Target == "ucsb-r1" && a.Kind == "route-injection" && a.ResolvedAt.IsZero() {
			t.Error("resolved episode lacks ResolvedAt")
		}
	}
	if err := m2.CloseArchive(n.Now()); err != nil {
		t.Fatal(err)
	}
}

// TestArchiveMirrorBytesRepeat: two archived monitors fed the same
// script write the same tsdb mirror bytes. The script puts a gap on
// every series' BlockPoints-th point, so all of a target's series seal
// inside one MarkGap and the mirror frames them in the order they seal.
// Several pairs are compared, so an order that depends on map
// iteration cannot pass by chance.
func TestArchiveMirrorBytesRepeat(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	mirror := func() map[string]string {
		dir := t.TempDir()
		m := mantra.New()
		if _, err := m.EnableArchive(mantra.ArchiveConfig{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		p := m.Processor()
		at := time.Date(2001, 9, 3, 0, 0, 0, 0, time.UTC)
		for i := 1; i < tsdb.BlockPoints; i++ {
			p.Ingest(&tables.Snapshot{Target: "fixw", At: at})
			at = at.Add(30 * time.Minute)
		}
		p.MarkGap("fixw", at)
		if err := m.CloseArchive(at); err != nil {
			t.Fatal(err)
		}
		paths, _ := filepath.Glob(filepath.Join(dir, "tsdb", "tsdb-*.seg"))
		out := make(map[string]string)
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(path)] = string(data)
		}
		return out
	}
	want := mirror()
	if len(want) == 0 {
		t.Fatal("no mirror segment written")
	}
	for i := 0; i < 4; i++ {
		if got := mirror(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d wrote different mirror bytes from the same script", i+2)
		}
	}
}
