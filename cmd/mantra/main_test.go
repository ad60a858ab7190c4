package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/core/shard"
	"repro/internal/netsim"
	"repro/internal/testfault"
	"repro/internal/topo"
	"repro/internal/workload"
)

// serveRouters serves two simulated routers' CLIs on loopback listeners
// and returns the matching -target arguments.
func serveRouters(t *testing.T) []string {
	t.Helper()
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 3
	inet := topo.BuildInternet(cfg)
	n := netsim.New(inet, workload.New(workload.DefaultConfig(), inet.Topo), netsim.DefaultConfig())
	var args []string
	for _, name := range []string{"fixw", "ucsb-r1"} {
		if err := n.Track(name); err != nil {
			t.Fatal(err)
		}
		r := n.Router(name)
		r.Password = "pw"
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go r.ServeTCP(l) // returns when the cleanup closes the listener
		args = append(args, "-target", name+"="+l.Addr().String())
	}
	n.Step()
	return args
}

// deadTargets returns -target arguments for two addresses that refuse
// connections: listeners opened and closed again.
func deadTargets(t *testing.T) []string {
	t.Helper()
	var args []string
	for _, name := range []string{"dead-a", "dead-b"} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()
		args = append(args, "-target", name+"="+addr)
	}
	return args
}

// runDaemon drives run in-process and returns its exit code and output.
func runDaemon(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(append([]string{"-http", "127.0.0.1:0", "-interval", "1ms", "-password", "pw"}, args...), &out, &errb)
	return code, out.String(), errb.String()
}

var (
	statsLine  = regexp.MustCompile(`^\d\d:\d\d:\d\d \S+ +sessions=\d+ +participants=\d+ +active=\d+ +senders=\d+ +bw=\d+kbps routes=\d+ churn=\d+$`)
	healthLine = regexp.MustCompile(`^\d\d:\d\d:\d\d \S+ +health (shard=\d+ +)?breaker=closed +consecutive_failures=0 +gaps=0 +last_success=\d\d:\d\d:\d\d$`)
)

// TestDaemonBothModes: the one loop prints the same stats and health
// line shapes whether it drives a Monitor or a Supervisor, and exits 0
// after -cycles.
func TestDaemonBothModes(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	targets := serveRouters(t)
	for _, mode := range [][]string{nil, {"-shards", "2"}} {
		code, out, errOut := runDaemon(append(append([]string{"-cycles", "2"}, mode...), targets...)...)
		if code != 0 {
			t.Fatalf("%v: exit %d\nstderr: %s", mode, code, errOut)
		}
		stats, health := 0, 0
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			switch {
			case statsLine.MatchString(line):
				stats++
			case healthLine.MatchString(line):
				if sharded := strings.Contains(line, " shard="); sharded != (mode != nil) {
					t.Errorf("%v: shard column presence wrong: %q", mode, line)
				}
				health++
			default:
				t.Errorf("%v: unexpected stdout line %q", mode, line)
			}
		}
		// Two targets, two cycles.
		if stats != 4 || health != 4 {
			t.Errorf("%v: %d stats and %d health lines, want 4 and 4\n%s", mode, stats, health, out)
		}
	}
}

// TestConcurrencyFlagSelectsPipelinedSchedule: the unsharded daemon
// runs the pipelined schedule on min(8, targets) workers unless
// -concurrency sizes the pool. An explicit -concurrency used to be
// stored and then ignored: the serial schedule ran on one worker.
func TestConcurrencyFlagSelectsPipelinedSchedule(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	engineLine := regexp.MustCompile(`(?m)^\d\d:\d\d:\d\d engine cycle=1 workers=(\d+) targets=2 `)
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "2"},                           // min(8, targets)
		{[]string{"-concurrency", "4"}, "2"}, // clamped to the two targets
		{[]string{"-concurrency", "1"}, "1"},
	} {
		args := append([]string{"-cycles", "1", "-stats"}, c.args...)
		code, out, errOut := runDaemon(append(args, serveRouters(t)...)...)
		m := engineLine.FindStringSubmatch(out)
		if code != 0 || m == nil || m[1] != c.want {
			t.Errorf("%v: exit %d, engine line %q, want workers=%s\nstdout: %s\nstderr: %s", c.args, code, m, c.want, out, errOut)
		}
	}
}

// TestDaemonGivesUpInBothModes: -max-consecutive-failures is evaluated
// over whichever mode's health rows. Under -shards it used to never
// fire.
func TestDaemonGivesUpInBothModes(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	for _, mode := range [][]string{nil, {"-shards", "2"}} {
		args := append([]string{"-cycles", "5", "-retries", "1", "-breaker-threshold", "1", "-max-consecutive-failures", "1"}, mode...)
		code, _, errOut := runDaemon(append(args, deadTargets(t)...)...)
		if code != 1 || !strings.Contains(errOut, "giving up") {
			t.Errorf("%v: exit %d, want 1 with a giving-up line\nstderr: %s", mode, code, errOut)
		}
	}
}

// TestDaemonRejectsMonitorOnlyFlagsUnderShards: a flag the supervisor
// would silently drop is a usage error that names the flag.
func TestDaemonRejectsMonitorOnlyFlagsUnderShards(t *testing.T) {
	for _, flag := range monitorOnlyFlags {
		arg := "-" + flag
		if flag == "checkpoint-every" {
			arg += "=3"
		}
		code, _, errOut := runDaemon("-shards", "2", arg)
		if code != 2 || !strings.Contains(errOut, "-"+flag+" has no meaning") {
			t.Errorf("%s: exit %d, want 2 naming the flag\nstderr: %s", arg, code, errOut)
		}
	}
	if code, _, errOut := runDaemon("-target", "bad"); code != 2 {
		t.Errorf("bad -target: exit %d, want 2\nstderr: %s", code, errOut)
	}
}

// TestDaemonRejectsFlagsOutOfMode: a shard flag without -shards, and a
// shard or cycle count the loop would read as something else, are usage
// errors that name the flag. Each used to run one cycle of the
// unsharded monitor (or none, for -cycles -1) and exit 0.
func TestDaemonRejectsFlagsOutOfMode(t *testing.T) {
	dead := append([]string{"-retries", "1"}, deadTargets(t)...)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-cycles", "1", "-shard-heartbeat", "30s"}, "-shard-heartbeat has no meaning with -shards 1"},
		{[]string{"-cycles", "1", "-shards", "1", "-shard-heartbeat", "30s"}, "-shard-heartbeat has no meaning with -shards 1"},
		{[]string{"-cycles", "1", "-shards", "0"}, "-shards 0 has no meaning"},
		{[]string{"-cycles", "1", "-shards", "-3"}, "-shards -3 has no meaning"},
		{[]string{"-cycles", "-1"}, "-cycles -1 has no meaning"},
	} {
		code, _, errOut := runDaemon(append(c.args, dead...)...)
		if code != 2 || !strings.Contains(errOut, c.want) {
			t.Errorf("%v: exit %d, want 2 with %q\nstderr: %s", c.args, code, c.want, errOut)
		}
	}
}

// simTargets returns in-process targets for four simulated routers.
func simTargets(t *testing.T) []mantra.Target {
	t.Helper()
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 3
	inet := topo.BuildInternet(cfg)
	n := netsim.New(inet, workload.New(workload.DefaultConfig(), inet.Topo), netsim.DefaultConfig())
	var targets []mantra.Target
	for _, name := range []string{"fixw", "ucsb-r1", "dom00-gw", "dom01-gw"} {
		if err := n.Track(name); err != nil {
			t.Fatal(err)
		}
		n.Router(name).Password = "pw"
		targets = append(targets, mantra.Target{Name: name, Dialer: collect.PipeDialer{Router: n.Router(name)},
			Password: "pw", Prompt: name + "> ", Timeout: 5 * time.Second})
	}
	n.Step()
	return targets
}

// TestShardIndexListsFleetTargets: under -shards the / index lists every
// target the fleet serves series for, and fleet, sorted, as the
// Monitor's index lists its own. It used to list only fleet, the one
// target whose series live in the fleet processor.
func TestShardIndexListsFleetTargets(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	targets := simTargets(t)
	want := []string{"dom00-gw", "dom01-gw", "fixw", shard.FleetTarget, "ucsb-r1"}
	logger := log.New(io.Discard, "", 0)
	for _, shards := range []int{1, 4} {
		d, err := shardDaemon(logger, targets, shard.Config{Shards: shards, Policy: collect.Policy{MaxAttempts: 1}})
		if err != nil {
			t.Fatal(err)
		}
		now := time.Date(2001, 9, 3, 0, 0, 0, 0, time.UTC)
		for c := 0; c < 2; c++ {
			now = now.Add(time.Minute)
			if _, err := d.cycle(now); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		d.handler.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		var idx struct{ Targets []string }
		if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(idx.Targets, want) {
			t.Errorf("%d shards: / lists %v, want %v", shards, idx.Targets, want)
		}
		for _, name := range idx.Targets {
			rec := httptest.NewRecorder()
			d.handler.ServeHTTP(rec, httptest.NewRequest("GET", "/series/"+name+"/routes", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("%d shards: / lists %s, but /series/%s/routes answers %d", shards, name, name, rec.Code)
			}
		}
		if err := d.close(now); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEpisodeLogFollowsEpisodesNotIDs: the printed ANOMALY and RESOLVED
// lines follow episodes through a fleet log whose IDs shift down when a
// shard's ring evicts. Keyed by ID, the loop printed no new episode once
// the IDs shifted, and printed resolutions against the wrong episode.
func TestEpisodeLogFollowsEpisodesNotIDs(t *testing.T) {
	at := time.Date(2001, 9, 3, 0, 0, 0, 0, time.UTC)
	ep := func(id int, target, kind string, opened int, resolved bool) mantra.Anomaly {
		a := mantra.Anomaly{ID: id, Target: target, Kind: kind, Severity: "warning", At: at.Add(time.Duration(opened) * time.Minute)}
		if resolved {
			a.Resolved, a.ResolvedAt = true, a.At.Add(time.Minute)
		}
		return a
	}
	cycles := [][]mantra.Anomaly{
		{ep(1, "fixw", "route-leak", 0, false), ep(2, "ucsb-r1", "rp-failure", 1, false)},
		// fixw's episode resolves.
		{ep(1, "fixw", "route-leak", 0, true), ep(2, "ucsb-r1", "rp-failure", 1, false)},
		// The ring evicts it; a new episode takes ID 2.
		{ep(1, "ucsb-r1", "rp-failure", 1, false), ep(2, "fixw", "prune-storm", 2, false)},
		// ucsb-r1's resolves under ID 1, which fixw's resolution had.
		{ep(1, "ucsb-r1", "rp-failure", 1, true), ep(2, "fixw", "prune-storm", 2, false)},
	}
	var out strings.Builder
	l := make(episodeLog)
	for _, an := range cycles {
		l.print(log.New(&out, "", 0), an)
	}
	want := []string{
		"mantra: ANOMALY #1 warning route-leak at fixw: ",
		"mantra: ANOMALY #2 warning rp-failure at ucsb-r1: ",
		"mantra: RESOLVED #1 route-leak at fixw after 1m0s",
		"mantra: ANOMALY #2 warning prune-storm at fixw: ",
		"mantra: RESOLVED #1 rp-failure at ucsb-r1 after 1m0s",
	}
	if got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"); !slices.Equal(got, want) {
		t.Errorf("printed\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
