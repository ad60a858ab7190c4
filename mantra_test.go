package mantra_test

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/netsim"
	"repro/internal/testfault"
	"repro/internal/topo"
	"repro/internal/workload"
)

// newMonitoredNetwork wires a Monitor to a small simulated internetwork.
func newMonitoredNetwork(t *testing.T) (*netsim.Network, *mantra.Monitor) {
	t.Helper()
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 4
	inet := topo.BuildInternet(cfg)
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	n := netsim.New(inet, wl, netsim.DefaultConfig())
	if err := n.Track("fixw", "ucsb-r1"); err != nil {
		t.Fatal(err)
	}
	m := mantra.New()
	for _, name := range []string{"fixw", "ucsb-r1"} {
		r := n.Router(name)
		r.Password = "pw"
		m.AddTarget(mantra.Target{
			Name:     name,
			Dialer:   collect.PipeDialer{Router: r},
			Password: "pw",
			Prompt:   name + "> ",
		})
	}
	return n, m
}

func TestMonitorRunCycle(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	n, m := newMonitoredNetwork(t)
	if got := m.Targets(); len(got) != 2 || got[0] != "fixw" {
		t.Fatalf("targets = %v", got)
	}
	var last []mantra.CycleStats
	for i := 0; i < 5; i++ {
		n.Step()
		stats, err := m.RunCycle(n.Now())
		if err != nil {
			t.Fatal(err)
		}
		last = stats
	}
	if len(last) != 2 {
		t.Fatalf("stats = %d targets", len(last))
	}
	fixw := last[0]
	if fixw.Target != "fixw" || fixw.Sessions == 0 || fixw.Participants == 0 {
		t.Errorf("fixw stats = %+v", fixw)
	}
	if fixw.Routes < 100 {
		t.Errorf("routes = %d", fixw.Routes)
	}
	if m.Series("fixw", mantra.MetricSessions).Len() != 5 {
		t.Error("series not extended per cycle")
	}
	if m.Latest("fixw") == nil || m.Latest("ghost") != nil {
		t.Error("Latest wrong")
	}
	if m.Log().Cycles("fixw") != 5 {
		t.Errorf("logged cycles = %d", m.Log().Cycles("fixw"))
	}
}

func TestMonitorClassificationConsistency(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	n, m := newMonitoredNetwork(t)
	for i := 0; i < 6; i++ {
		n.Step()
	}
	stats, err := m.RunCycle(n.Now())
	if err != nil {
		t.Fatal(err)
	}
	st := stats[0]
	if st.Senders > st.Participants {
		t.Error("senders exceed participants")
	}
	if st.ActiveSessions > st.Sessions {
		t.Error("active sessions exceed sessions")
	}
	if st.SavedFactor < 1 && st.BandwidthKbps > 0 {
		t.Errorf("saved factor %f < 1", st.SavedFactor)
	}
}

func TestMonitorHTTPEndToEnd(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	n, m := newMonitoredNetwork(t)
	for i := 0; i < 3; i++ {
		n.Step()
		if _, err := m.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	for _, path := range []string{
		"/series/fixw/sessions",
		"/graph/fixw/routes",
		"/tables/busiest-fixw",
		"/tables/senders-fixw",
		"/tables/routes-fixw",
		"/anomalies",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s -> %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestMonitorFailedTargetDegrades(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	n, m := newMonitoredNetwork(t)
	m.SetCollectPolicy(collect.Policy{
		MaxAttempts: 2,
		Sleep:       func(time.Duration) {},
	})
	m.AddTarget(mantra.Target{
		Name:    "dead",
		Dialer:  collect.TCPDialer{Addr: "127.0.0.1:1", Timeout: 100 * time.Millisecond},
		Prompt:  "dead> ",
		Timeout: 100 * time.Millisecond,
	})
	n.Step()
	stats, err := m.RunCycle(n.Now())
	if err != nil {
		t.Fatalf("dead target aborted the cycle: %v", err)
	}
	if len(stats) != 2 {
		t.Errorf("live targets collected = %d, want 2", len(stats))
	}
	results := m.LastResults()
	if len(results) != 3 {
		t.Fatalf("results = %d targets, want 3", len(results))
	}
	dead := results[2]
	if dead.Target != "dead" || dead.Status != collect.StatusDegraded || dead.Err == nil {
		t.Errorf("dead result = %+v", dead)
	}
	if dead.Attempts != 2 {
		t.Errorf("dead attempts = %d, want 2", dead.Attempts)
	}
	health := m.Health()
	if len(health) != 3 {
		t.Fatalf("health = %d targets, want 3", len(health))
	}
	if h := health[2]; h.ConsecutiveFailures != 1 || h.LastError == "" {
		t.Errorf("dead health = %+v", h)
	}
	if h := health[0]; h.ConsecutiveFailures != 0 || h.LastStatus != collect.StatusOK {
		t.Errorf("fixw health = %+v", h)
	}
	// The dead target's series must carry an explicit gap marker.
	if s := m.Series("dead", mantra.MetricSessions); s == nil || s.GapCount() != 1 || s.Len() != 0 {
		t.Errorf("dead series gaps wrong: %+v", s)
	}
	if s := m.Series("fixw", mantra.MetricSessions); s.GapCount() != 0 || s.Len() != 1 {
		t.Errorf("fixw series has spurious gaps: %+v", s)
	}
}

func TestMonitorReRegistrationResetsBreaker(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	n, m := newMonitoredNetwork(t)
	m.SetCollectPolicy(collect.Policy{
		MaxAttempts:      1,
		BreakerThreshold: 2,
		BreakerCooldown:  24 * time.Hour,
		Sleep:            func(time.Duration) {},
	})
	m.AddTarget(mantra.Target{
		Name:    "flaky",
		Dialer:  collect.TCPDialer{Addr: "127.0.0.1:1", Timeout: 50 * time.Millisecond},
		Prompt:  "flaky> ",
		Timeout: 50 * time.Millisecond,
	})
	for i := 0; i < 2; i++ {
		n.Step()
		if _, err := m.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if h := m.Health()[2]; h.Breaker != collect.BreakerOpen {
		t.Fatalf("setup: flaky breaker = %+v, want open", h)
	}

	// Re-registering the name — say the operator swapped in a working
	// device — must replace in place and start the ledger fresh, not
	// leave the replacement stuck behind the old device's cooldown.
	r := n.Router("dom01-gw")
	r.Password = "pw"
	m.AddTarget(mantra.Target{
		Name:     "flaky",
		Dialer:   collect.PipeDialer{Router: r},
		Password: "pw",
		Prompt:   "dom01-gw> ",
		Timeout:  5 * time.Second,
	})
	if got := m.Targets(); len(got) != 3 || got[2] != "flaky" {
		t.Fatalf("re-registration duplicated the target: %v", got)
	}
	if h := m.Health()[2]; h.Breaker != collect.BreakerClosed || h.ConsecutiveFailures != 0 {
		t.Fatalf("breaker survived re-registration: %+v", h)
	}
	n.Step()
	if _, err := m.RunCycle(n.Now()); err != nil {
		t.Fatal(err)
	}
	hv := m.HealthView()
	row := hv.Targets[2]
	if row.Target != "flaky" || row.LastStatus != collect.StatusOK || row.TotalFailures != 0 {
		t.Errorf("replacement not collecting cleanly: %+v", row)
	}
	// Gap visibility survives the reset: the two failed cycles stay on
	// the series record, and the fresh success is timestamped.
	if row.GapCount != 2 {
		t.Errorf("gap count = %d, want the 2 failed cycles", row.GapCount)
	}
	if !row.LastSuccess.Equal(n.Now()) {
		t.Errorf("last success = %v, want %v", row.LastSuccess, n.Now())
	}

	if !m.RemoveTarget("flaky") {
		t.Fatal("RemoveTarget said flaky was not registered")
	}
	if m.RemoveTarget("flaky") {
		t.Fatal("second RemoveTarget should report absence")
	}
	if got := m.Targets(); len(got) != 2 {
		t.Fatalf("targets after removal = %v", got)
	}
	if rows := m.HealthView().Targets; len(rows) != 2 {
		t.Fatalf("/health still lists the removed target: %+v", rows)
	}
	// History outlives membership: the series (and its gaps) remain.
	if s := m.Series("flaky", mantra.MetricRoutes); s == nil || s.GapCount() != 2 {
		t.Errorf("flaky series lost after removal: %+v", s)
	}
}

func TestMonitorAllTargetsFailed(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	m := mantra.New()
	m.SetCollectPolicy(collect.Policy{
		MaxAttempts: 1,
		Sleep:       func(time.Duration) {},
	})
	m.AddTarget(mantra.Target{
		Name:    "dead",
		Dialer:  collect.TCPDialer{Addr: "127.0.0.1:1", Timeout: 100 * time.Millisecond},
		Prompt:  "dead> ",
		Timeout: 100 * time.Millisecond,
	})
	stats, err := m.RunCycle(time.Unix(0, 0).UTC())
	if !errors.Is(err, mantra.ErrAllTargetsFailed) {
		t.Fatalf("err = %v, want ErrAllTargetsFailed", err)
	}
	if len(stats) != 0 {
		t.Errorf("stats = %d, want 0", len(stats))
	}
	if !strings.Contains(err.Error(), "mantra:") {
		t.Errorf("error not wrapped: %v", err)
	}
}

func TestMonitorHealthEndpoint(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	n, m := newMonitoredNetwork(t)
	n.Step()
	if _, err := m.RunCycle(n.Now()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/health -> %d", resp.StatusCode)
	}
	var health mantra.HealthView
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if len(health.Targets) != 2 {
		t.Fatalf("health = %d targets, want 2", len(health.Targets))
	}
	if h := health.Targets[0]; h.Target != "fixw" || h.Breaker != collect.BreakerClosed || h.TotalCycles != 1 {
		t.Errorf("fixw health = %+v", h)
	}
	if health.Anomalies.Total != 0 || health.Anomalies.Open != 0 {
		t.Errorf("anomaly rollup = %+v", health.Anomalies)
	}
}

func TestMonitorDeltaLogReconstruction(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	n, m := newMonitoredNetwork(t)
	for i := 0; i < 4; i++ {
		n.Step()
		if _, err := m.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	// The reconstructed latest cycle must equal the live snapshot.
	sn := m.Latest("fixw")
	routes, err := m.Log().ReconstructRoutes("fixw", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != len(sn.Routes) {
		t.Errorf("reconstructed %d routes, snapshot has %d", len(routes), len(sn.Routes))
	}
	pairs, err := m.Log().ReconstructPairs("fixw", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(sn.Pairs) {
		t.Errorf("reconstructed %d pairs, snapshot has %d", len(pairs), len(sn.Pairs))
	}
	// Delta storage must beat full snapshots on the route table.
	d, f, ratio := m.Log().StorageStats("fixw")
	if d >= f {
		t.Errorf("deltas (%d) not smaller than full (%d)", d, f)
	}
	if ratio <= 1 {
		t.Errorf("compression ratio = %f", ratio)
	}
}
