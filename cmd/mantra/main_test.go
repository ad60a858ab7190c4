package main

import (
	"bytes"
	"net"
	"regexp"
	"strings"
	"testing"

	"repro/internal/netsim"
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

// TestConcurrencyFlagSelectsPipelinedSchedule: an explicit -concurrency
// is honoured by the unsharded daemon without -concurrent. It used to be
// stored and then ignored: the serial schedule ran on one worker.
func TestConcurrencyFlagSelectsPipelinedSchedule(t *testing.T) {
	engineLine := regexp.MustCompile(`(?m)^\d\d:\d\d:\d\d engine cycle=1 workers=(\d+) targets=2 `)
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "1"},
		{[]string{"-concurrency", "4"}, "2"}, // clamped to the two targets
		{[]string{"-concurrency", "1"}, "1"},
		{[]string{"-concurrent"}, "2"},
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
