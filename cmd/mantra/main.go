// Command mantra is the monitoring daemon: it polls the configured router
// CLIs on an interval, processes the dumps through the full Mantra
// pipeline, and serves results over HTTP — the paper's web-based output
// interface.
//
//	mantra -target fixw=127.0.0.1:2601 -target ucsb-r1=127.0.0.1:2602 \
//	       -password mantra -interval 2s -http 127.0.0.1:8080
//
// Collection is resilient: each target gets per-cycle retries with
// backoff, a circuit breaker that opens after repeated failed cycles, and
// structural dump validation. A failing target degrades the cycle instead
// of aborting it; per-target health is printed each cycle and served at
// /health. With -max-consecutive-failures N the daemon exits non-zero
// once every target is breaker-open with at least N consecutive failures,
// so a fully dead deployment fails loudly instead of spinning.
//
// With -data-dir the archive is durable: every delta and gap marker goes
// to a checksummed write-ahead log with periodic full-state checkpoints,
// and a restart recovers the series, tables and health ledger to their
// pre-crash values (at most the final partial record is lost).
//
// Collection runs through the pipelined cycle engine on a bounded
// worker pool: -concurrency N sizes it, 0 (the default) means
// min(8, targets) and 1 the serial schedule, whose output is
// byte-identical. -stats prints the engine's per-stage timings each
// cycle, and the same instrumentation is served at /stats.
//
// Detected anomalies (route injection, RP loss, SA storms, route leaks,
// route flapping) are logged once when they open and once when they
// resolve, and served with full episode state at /anomalies;
// -max-anomalies caps the retained episode ring.
//
// With -shards N (N > 1), the same daemon loop drives the fault-tolerant
// shard supervisor instead of the single monitor: targets are
// consistent-hash-assigned across N supervised shard workers, each with
// its own WAL under -data-dir/shard-NN, and the merged fleet view is
// what the HTTP endpoints serve. A shard that crashes or stops
// heartbeating (-shard-heartbeat, measured in cycle time) is declared
// dead at the next cycle boundary; its targets hand off to the
// survivors with their health ledger, breaker state and open anomaly
// episodes intact, and the shard restarts under bounded backoff.
// Per-shard liveness, assignment and handoff counts are served at
// /shards, and /stats lists one engine view per shard. Flags that only
// mean something to the single monitor (-aggregate, -stats,
// -checkpoint-every, -resume) are a startup error under -shards N, as
// are -shard-heartbeat without it, -shards below 1 and negative -cycles.
//
// Exit codes: 0 after -cycles completed, 1 on a runtime failure
// (-max-consecutive-failures tripped, archive or listener error), 2 on a
// usage error.
//
// Every series point lives once, in the compressed store behind
// /series, /graph and /query.
//
// Endpoints: /  /series/<target>/<metric>[?from=&to=&limit=]
// /graph/<target>/<metric>  /tables/<name>  /anomalies  /health
// /archive  /stats  /shards  /query?metric=&op=&target=&from=&to=&k=&by=&tier=
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/core/engine"
	"repro/internal/core/output"
	"repro/internal/core/process"
	"repro/internal/core/shard"
)

// monitorOnlyFlags mean nothing to the shard supervisor: it keeps no
// aggregate view (the fleet view replaces it), has no single engine to
// report on, and keeps WALs without checkpoints or resume.
var monitorOnlyFlags = []string{"aggregate", "stats", "checkpoint-every", "resume"}

// daemon is what the loop drives: a Monitor or a shard Supervisor behind
// the same five calls.
type daemon struct {
	handler http.Handler
	// cycle runs one cycle stamped now, logs what its mode has to say
	// about it and returns the successful targets' statistics. An error
	// ends the daemon.
	cycle func(now time.Time) ([]mantra.CycleStats, error)
	// health is one row per target: the printed health lines and the
	// input to -max-consecutive-failures. Shard is -1 when unsharded.
	health    func() []shard.TargetHealthView
	anomalies func() []mantra.Anomaly
	// report is the last cycle's engine instrumentation for -stats; nil
	// under -shards, which rejects the flag.
	report func() *engine.CycleReport
	close  func(now time.Time) error
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "", log.LstdFlags)
	fs := flag.NewFlagSet("mantra", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var targets []mantra.Target
	addTarget := func(spec string) error {
		name, addr, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad target %q (want name=addr)", spec)
		}
		targets = append(targets, mantra.Target{
			Name:    name,
			Dialer:  collect.TCPDialer{Addr: addr},
			Prompt:  name + "> ",
			Timeout: 10 * time.Second,
		})
		return nil
	}
	fs.Func("target", "name=addr pair, e.g. fixw=127.0.0.1:2601 (repeatable)", addTarget)
	password := fs.String("password", "mantra", "CLI password")
	interval := fs.Duration("interval", 5*time.Second, "polling interval (wall clock)")
	httpAddr := fs.String("http", "127.0.0.1:8080", "HTTP address serving results")
	cycles := fs.Int("cycles", 0, "stop after N cycles (0 = run forever)")
	concurrency := fs.Int("concurrency", 0, "collection worker pool size (0 = min(8, targets), 1 = serial)")
	showStats := fs.Bool("stats", false, "print per-cycle engine stage timings")
	aggregate := fs.Bool("aggregate", false, "publish a combined multi-router view")
	retries := fs.Int("retries", 3, "collection attempts per target per cycle")
	retryBase := fs.Duration("retry-base", 100*time.Millisecond, "backoff before the first retry (doubles per retry)")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive failed cycles before a target's circuit breaker opens")
	breakerCooldown := fs.Duration("breaker-cooldown", time.Minute, "how long an open breaker waits before a half-open probe")
	maxConsecFail := fs.Int("max-consecutive-failures", 0, "exit non-zero once every target is breaker-open with at least this many consecutive failures (0 disables)")
	showHealth := fs.Bool("health", true, "print per-target collection health each cycle")
	dataDir := fs.String("data-dir", "", "durable archive directory; empty disables archival")
	checkpointEvery := fs.Int("checkpoint-every", 12, "cycles between full-state checkpoints")
	resume := fs.Bool("resume", true, "recover existing archive data on start (with -data-dir)")
	archiveSync := fs.Bool("archive-sync", false, "fsync the archive after every record (durable to the last cycle, slower)")
	maxAnomalies := fs.Int("max-anomalies", 0, "cap on retained anomaly episodes, oldest resolved evicted first (0 = default cap)")
	shards := fs.Int("shards", 1, "shard worker count; >1 runs the fault-tolerant shard supervisor")
	shardHeartbeat := fs.Duration("shard-heartbeat", 0, "declare a shard dead when its last completed cycle is older than this (cycle time; 0 = crash detection only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if len(targets) == 0 {
		_ = addTarget("fixw=127.0.0.1:2601") // well-formed literals
		_ = addTarget("ucsb-r1=127.0.0.1:2602")
	}
	for i := range targets {
		targets[i].Password = *password
	}
	policy := collect.Policy{
		MaxAttempts:      *retries,
		BaseDelay:        *retryBase,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	}

	// A flag the chosen mode would drop, or a count it would read as
	// something else, is a usage error that names the flag.
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var usage string
	switch {
	case *shards < 1:
		usage = fmt.Sprintf("-shards %d has no meaning (want 1 or more)", *shards)
	case *cycles < 0:
		usage = fmt.Sprintf("-cycles %d has no meaning (want 0 to run forever, or more)", *cycles)
	case *shards == 1 && set["shard-heartbeat"]:
		usage = "-shard-heartbeat has no meaning with -shards 1"
	}
	for _, name := range monitorOnlyFlags {
		if usage == "" && *shards > 1 && set[name] {
			usage = fmt.Sprintf("-%s has no meaning with -shards %d", name, *shards)
		}
	}
	if usage != "" {
		logger.Printf("mantra: %s", usage)
		return 2
	}

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		logger.Printf("mantra: http: %v", err)
		return 1
	}
	defer ln.Close()

	var d *daemon
	if *shards > 1 {
		d, err = shardDaemon(logger, targets, shard.Config{
			Shards:           *shards,
			HeartbeatTimeout: *shardHeartbeat,
			Policy:           policy,
			Concurrency:      *concurrency,
			MaxAnomalies:     *maxAnomalies,
			DataDir:          *dataDir,
			SyncEveryAppend:  *archiveSync,
		})
	} else {
		m := mantra.New()
		m.SetCollectPolicy(policy)
		if *aggregate {
			m.EnableAggregation()
		}
		m.SetMaxAnomalies(*maxAnomalies)
		m.SetConcurrency(*concurrency)
		d, err = monitorDaemon(logger, m, targets, mantra.ArchiveConfig{
			Dir:             *dataDir,
			CheckpointEvery: *checkpointEvery,
			SyncEveryAppend: *archiveSync,
			Resume:          *resume,
		})
	}
	if err != nil {
		logger.Printf("mantra: %v", err)
		return 1
	}

	srv := &http.Server{Handler: d.handler}
	go srv.Serve(ln) // returns once srv.Close below closes the listener
	defer srv.Close()
	logger.Printf("mantra: serving results on http://%s/", ln.Addr())

	code := 0
	lastAnomalyID := -1
	resolvedPrinted := make(map[int]bool)
	for i := 0; code == 0 && (*cycles == 0 || i < *cycles); i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		now := time.Now().UTC() // composition root: live monitoring stamps cycles with real time and injects it downward
		stamp := now.Format("15:04:05")
		stats, err := d.cycle(now)
		if err != nil {
			logger.Printf("mantra: cycle: %v", err)
			code = 1
			break
		}
		for _, st := range stats {
			fmt.Fprintf(stdout, "%s %-10s sessions=%-5d participants=%-5d active=%-4d senders=%-4d bw=%.0fkbps routes=%d churn=%d\n",
				stamp, st.Target, st.Sessions, st.Participants,
				st.ActiveSessions, st.Senders, st.BandwidthKbps, st.Routes, st.RouteChurn)
		}
		if *showStats {
			if rep := d.report(); rep != nil {
				fmt.Fprintf(stdout, "%s engine cycle=%d workers=%d targets=%d failed=%d wall=%s queue_peak=%d collect=%s normalize=%s log=%s ingest=%s publish=%s\n",
					stamp, rep.Cycle, rep.Concurrency, rep.Targets, rep.Failed,
					rep.Wall().Round(time.Microsecond), rep.MaxQueueDepth,
					rep.StageTotal(engine.StageCollect).Round(time.Microsecond),
					rep.StageTotal(engine.StageNormalize).Round(time.Microsecond),
					rep.StageTotal(engine.StageLog).Round(time.Microsecond),
					rep.StageTotal(engine.StageIngest).Round(time.Microsecond),
					rep.StageTotal(engine.StagePublish).Round(time.Microsecond))
			}
		}
		health := d.health()
		if *showHealth {
			for _, h := range health {
				owner := ""
				if h.Shard >= 0 {
					owner = fmt.Sprintf("shard=%-2d ", h.Shard)
				}
				last := "never"
				if !h.LastSuccess.IsZero() {
					last = h.LastSuccess.Format("15:04:05")
				}
				line := fmt.Sprintf("%s %-10s health %sbreaker=%-9s consecutive_failures=%-3d gaps=%-3d last_success=%s",
					stamp, h.Target, owner, h.Breaker, h.ConsecutiveFailures, h.GapCount, last)
				if h.LastError != "" {
					line += " last_error=" + h.LastError
				}
				fmt.Fprintln(stdout, line)
			}
		}
		// Anomalies are episodes, not events: print each once when it
		// opens and once when it resolves, rather than re-logging every
		// open episode every cycle.
		for _, a := range d.anomalies() {
			if a.ID > lastAnomalyID {
				lastAnomalyID = a.ID
				logger.Printf("mantra: ANOMALY #%d %s %s at %s: %s", a.ID, a.Severity, a.Kind, a.Target, a.Detail)
			}
			if a.Resolved && !resolvedPrinted[a.ID] {
				resolvedPrinted[a.ID] = true
				logger.Printf("mantra: RESOLVED #%d %s at %s after %s", a.ID, a.Kind, a.Target, a.ResolvedAt.Sub(a.At))
			}
		}
		if *maxConsecFail > 0 && allBreakerOpen(health, *maxConsecFail) {
			logger.Printf("mantra: every target is breaker-open with >=%d consecutive failures; giving up", *maxConsecFail)
			code = 1
		}
	}
	// Every way out of the loop shuts down the same way: final
	// checkpoint and archive close, or supervisor stop.
	if err := d.close(time.Now().UTC()); err != nil { // composition root: final checkpoint stamped with real time
		logger.Printf("mantra: close: %v", err)
		code = 1
	}
	return code
}

// monitorDaemon sets up the unsharded daemon: one Monitor, with the
// durable archive when archive names a directory.
func monitorDaemon(logger *log.Logger, m *mantra.Monitor, targets []mantra.Target, archive mantra.ArchiveConfig) (*daemon, error) {
	for _, t := range targets {
		m.AddTarget(t)
	}
	if archive.Dir != "" {
		report, err := m.EnableArchive(archive)
		if err != nil {
			return nil, fmt.Errorf("archive: %w", err)
		}
		if report.Resumed {
			logger.Printf("mantra: archive resumed from %s: %d targets, %d cycles + %d gaps replayed after checkpoint %s",
				archive.Dir, len(report.Targets), report.CyclesReplayed, report.GapsReplayed,
				report.CheckpointAt.Format(time.RFC3339))
			if report.Stats.TornTail {
				logger.Printf("mantra: archive tail repaired: %s (%d bytes discarded)",
					report.Stats.TailError, report.Stats.TruncatedBytes)
			}
			if report.Stats.CorruptCheckpoints > 0 {
				logger.Printf("mantra: archive skipped %d corrupt checkpoint(s)", report.Stats.CorruptCheckpoints)
			}
		} else {
			logger.Printf("mantra: archiving to %s (checkpoint every %d cycles)", archive.Dir, archive.CheckpointEvery)
		}
	}
	return &daemon{
		handler: m.Handler(),
		cycle: func(now time.Time) ([]mantra.CycleStats, error) {
			stats, err := m.RunCycleConcurrent(now)
			if err != nil {
				// Every target failed; the daemon keeps polling.
				logger.Printf("mantra: cycle degraded: %v", err)
			}
			return stats, nil
		},
		health: func() []shard.TargetHealthView {
			view := m.HealthView().Targets
			rows := make([]shard.TargetHealthView, len(view))
			for i, h := range view {
				rows[i] = shard.TargetHealthView{TargetHealth: h.TargetHealth, Shard: -1, GapCount: h.GapCount}
			}
			return rows
		},
		anomalies: m.Anomalies,
		report:    m.LastCycleReport,
		close:     m.CloseArchive,
	}, nil
}

// shardDaemon sets up the -shards N daemon: the supervisor drives
// collection, and the HTTP server publishes the merged fleet views —
// the fleet series, the re-keyed fleet anomaly log, per-target health
// with gap counts, the per-shard engine stats and the /shards
// supervisor status.
func shardDaemon(logger *log.Logger, targets []mantra.Target, cfg shard.Config) (*daemon, error) {
	s, err := shard.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("shards: %w", err)
	}
	for _, t := range targets {
		s.Register(t)
	}
	srv := output.NewServer(s.FleetProc())
	srv.SetShards(func() any { return s.Status() })
	srv.SetHealth(func() any { return s.FleetHealth() })
	srv.SetStats(func() any { return s.EngineStats() })
	srv.SetAnomalies(func() []process.Anomaly { return s.FleetAnomalies() })
	srv.SetSeries(s.SeriesView)
	srv.SetQuery(s.QueryFleet)
	return &daemon{
		handler: srv,
		cycle: func(now time.Time) ([]mantra.CycleStats, error) {
			res, err := s.RunCycle(now)
			if err != nil {
				return nil, err
			}
			if res.Handoffs > 0 {
				logger.Printf("mantra: %d shard handoff(s) at this boundary; blind=%v", res.Handoffs, res.Blind)
			} else if len(res.Blind) > 0 {
				logger.Printf("mantra: blind targets this cycle: %v", res.Blind)
			}
			for _, werr := range res.WALErrs {
				logger.Printf("mantra: shard wal: %v", werr)
			}
			return res.Stats, nil
		},
		health:    s.FleetHealth,
		anomalies: s.FleetAnomalies,
		close:     func(time.Time) error { return s.Close() },
	}, nil
}

// allBreakerOpen reports whether every target's breaker is open with at
// least minFailures consecutive failures — the "nothing left to monitor"
// condition under -max-consecutive-failures.
func allBreakerOpen(health []shard.TargetHealthView, minFailures int) bool {
	if len(health) == 0 {
		return false
	}
	for _, h := range health {
		if h.Breaker != collect.BreakerOpen || h.ConsecutiveFailures < minFailures {
			return false
		}
	}
	return true
}
