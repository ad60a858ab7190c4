package mantra_test

// The HTTP bodies are part of the determinism contract: two daemons
// fed the same seed serve the same bytes, and one daemon serves the
// same bytes every time it is asked. A body built in map, goroutine
// or completion order breaks the first, usually after a few cycles.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/core/output"
	"repro/internal/core/process"
	"repro/internal/core/shard"
	"repro/internal/netsim"
	"repro/internal/testfault"
	"repro/internal/topo"
	"repro/internal/workload"
)

// repeatTargets spreads over enough routers that four shards hold
// several targets apiece.
var repeatTargets = []string{"fixw", "ucsb-r1", "dom00-gw", "dom01-gw", "dom02-gw", "dom03-gw"}

// repeatNetwork builds the seeded network both twins run against, with
// dom00 already native so the incident library's scenarios apply.
func repeatNetwork(t *testing.T) (*netsim.Network, []collect.Target) {
	t.Helper()
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 4
	inet := topo.BuildInternet(cfg)
	ncfg := netsim.DefaultConfig()
	ncfg.FlapPerDomainPerCycle = 0.3
	ncfg.RestartPerCycle = 0
	n := netsim.New(inet, workload.New(workload.DefaultConfig(), inet.Topo), ncfg)
	if err := n.Track(repeatTargets...); err != nil {
		t.Fatal(err)
	}
	n.Step()
	n.Step()
	n.TransitionDomain("dom00")
	var targets []collect.Target
	for _, name := range repeatTargets {
		n.Router(name).Password = "pw"
		targets = append(targets, collect.Target{
			Name:     name,
			Dialer:   collect.PipeDialer{Router: n.Router(name)},
			Password: "pw",
			Prompt:   name + "> ",
			Timeout:  5 * time.Second,
		})
	}
	return n, targets
}

// repeatPolicy keeps the breaker out of the way: the test is about
// bytes, not collection luck.
var repeatPolicy = collect.Policy{
	MaxAttempts:      2,
	BreakerThreshold: 1 << 20,
	BreakerCooldown:  90 * time.Minute,
	Sleep:            func(time.Duration) {},
}

// endpointPaths lists what a daemon serves: the / index, every table,
// series and graph it names, the registered targets' series, the
// anomaly views, /health, /shards and /query for each op. /stats is
// left out because it reports wall-clock stage timings, and /archive
// because it names the archive directory, which differs per twin.
func endpointPaths(t *testing.T, h http.Handler, targets []string) []string {
	t.Helper()
	var idx struct {
		Targets []string `json:"targets"`
		Metrics []string `json:"metrics"`
		Tables  []string `json:"tables"`
	}
	if err := json.Unmarshal([]byte(serve(h, "/")), &idx); err != nil {
		t.Fatal(err)
	}
	paths := []string{"/", "/anomalies", "/anomalies?open=1", "/anomalies?cross=1", "/health", "/shards"}
	for _, name := range idx.Tables {
		paths = append(paths, "/tables/"+name)
	}
	for _, target := range append(idx.Targets, targets...) {
		for _, m := range idx.Metrics {
			paths = append(paths, "/series/"+target+"/"+m, "/graph/"+target+"/"+m)
		}
	}
	for _, op := range []string{"range", "min", "max", "avg", "sum", "count", "rate", "topk&k=2"} {
		paths = append(paths, "/query?metric="+string(process.MetricRoutes)+"&op="+op)
	}
	return paths
}

func serve(h http.Handler, path string) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Body.String()
}

// requireSameBytes fetches every path three times from each twin and
// fails on any body that differs from the first twin's first answer.
func requireSameBytes(t *testing.T, cycle int, a, b http.Handler, targets []string) {
	t.Helper()
	for _, path := range endpointPaths(t, a, targets) {
		want := serve(a, path)
		for i := 0; i < 3; i++ {
			for twin, h := range []http.Handler{a, b} {
				if got := serve(h, path); got != want {
					t.Fatalf("cycle %d: twin %d fetch %d of %s differs from twin 0's first:\n got: %.300s\nwant: %.300s", cycle, twin, i+1, path, got, want)
				}
			}
		}
	}
}

// Each twin runs warmup cycles to give the detectors a baseline, then
// a route injection and a route leak open at several targets each. The
// endpoints are compared after every cycle: a view built in map order
// from a few keys can match its twin's by chance, but not a dozen
// times running.
const (
	repeatWarmup = 8
	repeatCycles = 12
)

// scheduleIncidents opens a route injection and a route leak, each seen
// at several targets, so the anomaly views, the cross-target view
// included, have content.
func scheduleIncidents(t *testing.T, n *netsim.Network) {
	t.Helper()
	for _, name := range []string{"unicast-injection", "route-leak"} {
		sc, err := netsim.LibraryScenario(name, 1, 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.ScheduleScenario(sc); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMonitorEndpointBytesRepeat: twin Monitors with aggregation and the
// archive on serve byte-identical bodies on every endpoint, fetch after
// fetch, while an incident is open.
func TestMonitorEndpointBytesRepeat(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	type twin struct {
		n *netsim.Network
		m *mantra.Monitor
	}
	var twins [2]twin
	for i := range twins {
		n, targets := repeatNetwork(t)
		m := mantra.New()
		m.SetCollectPolicy(repeatPolicy)
		m.EnableAggregation()
		if _, err := m.EnableArchive(mantra.ArchiveConfig{Dir: t.TempDir()}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.CloseArchive(n.Now()) })
		for _, tg := range targets {
			m.AddTarget(tg)
		}
		twins[i] = twin{n, m}
	}
	for c := 1; c <= repeatCycles; c++ {
		for _, tw := range twins {
			if c == repeatWarmup+1 {
				scheduleIncidents(t, tw.n)
			}
			tw.n.Step()
			if _, err := tw.m.RunCycleConcurrent(tw.n.Now()); err != nil {
				t.Fatal(err)
			}
		}
		requireSameBytes(t, c, twins[0].m.Handler(), twins[1].m.Handler(), repeatTargets)
	}
	if len(twins[0].m.OpenAnomalies()) == 0 || len(twins[0].m.Processor().CrossTarget()) == 0 {
		t.Fatal("no open cross-target incident: the anomaly views were compared empty")
	}
}

// TestFleetEndpointBytesRepeat: twin 4-shard Supervisors serve
// byte-identical bodies on every endpoint, fetch after fetch, while an
// incident is open.
func TestFleetEndpointBytesRepeat(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	type twin struct {
		n   *netsim.Network
		s   *shard.Supervisor
		srv *output.Server
	}
	var twins [2]twin
	for i := range twins {
		n, targets := repeatNetwork(t)
		s, err := shard.New(shard.Config{Shards: 4, RestartBackoff: time.Hour, Policy: repeatPolicy})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		for _, tg := range targets {
			s.Register(tg)
		}
		srv := output.NewServer(s.FleetProc())
		srv.SetShards(func() any { return s.Status() })
		srv.SetHealth(func() any { return s.FleetHealth() })
		srv.SetAnomalies(func() []process.Anomaly { return s.FleetAnomalies() })
		srv.SetSeries(s.SeriesView)
		srv.SetQuery(s.QueryFleet)
		twins[i] = twin{n, s, srv}
	}
	for c := 1; c <= repeatCycles; c++ {
		for _, tw := range twins {
			if c == repeatWarmup+1 {
				scheduleIncidents(t, tw.n)
			}
			tw.n.Step()
			if _, err := tw.s.RunCycle(tw.n.Now()); err != nil {
				t.Fatal(err)
			}
		}
		requireSameBytes(t, c, twins[0].srv, twins[1].srv, repeatTargets)
	}
	if len(process.CrossTargetOf(twins[0].s.FleetAnomalies())) == 0 {
		t.Fatal("no open cross-target incident: the anomaly views were compared empty")
	}
}
