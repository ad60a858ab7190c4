// Command mantrasim runs one of the paper's evaluation scenarios from
// start to finish — simulated network plus monitoring pipeline — and
// writes the resulting figure series and shape report.
//
//	mantrasim -scenario usage -scale standard -out out/
//
// Scenarios: usage (Figs 3–6 + 7), longterm (Fig 8), injection (Fig 9),
// or any incident from the scripted library (rp-failure, rp-failover,
// sa-storm, route-leak, unicast-injection, prune-storm) — an incident
// replay drives the scenario against a live monitor and reports the
// detection timeline against the scenario's contract, exiting non-zero
// if a bound is missed.
// Scales: quick, standard, full (figure scenarios only).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/workload"
)

func main() {
	scenario := flag.String("scenario", "usage",
		"usage | longterm | injection | a library incident ("+strings.Join(netsim.LibraryScenarios(), ", ")+")")
	scale := flag.String("scale", "standard", "quick | standard | full")
	out := flag.String("out", "out", "output directory")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "standard":
		sc = experiments.Standard
	case "full":
		sc = experiments.Full
	default:
		log.Fatalf("mantrasim: unknown scale %q", *scale)
	}

	var cfg experiments.Config
	switch *scenario {
	case "usage":
		cfg = experiments.UsageConfig(sc)
	case "longterm":
		cfg = experiments.LongTermConfig(sc)
	case "injection":
		cfg = experiments.InjectionConfig(sc)
	default:
		for _, name := range netsim.LibraryScenarios() {
			if name == *scenario {
				replayIncident(name, *out, *quiet)
				return
			}
		}
		log.Fatalf("mantrasim: unknown scenario %q (figure scenarios: usage, longterm, injection; incidents: %s)",
			*scenario, strings.Join(netsim.LibraryScenarios(), ", "))
	}

	r, err := experiments.NewRunner(cfg)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now() // operator-facing elapsed-time report; the simulation itself runs on virtual time
	progress := func(i int, now time.Time) {
		if !*quiet && i%200 == 0 {
			fmt.Fprintf(os.Stderr, "mantrasim: cycle %d, %s\r", i, now.Format("2006-01-02"))
		}
	}
	if err := r.Run(progress); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "\nmantrasim: %s/%s done in %v\n", *scenario, *scale, time.Since(start).Round(time.Second)) // operator-facing elapsed-time report on stderr

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	var figs []experiments.FigureResult
	var report experiments.ShapeReport
	switch *scenario {
	case "usage":
		figs = []experiments.FigureResult{r.Figure3(), r.Figure4(), r.Figure5(), r.Figure6(), r.Figure7()}
		report = r.UsageShape()
		route := r.RouteShape()
		report.Checks = append(report.Checks, route.Checks...)
	case "longterm":
		figs = []experiments.FigureResult{r.Figure8()}
		report = r.DeclineShape()
	case "injection":
		figs = []experiments.FigureResult{r.Figure9()}
		report = r.InjectionShape()
	}
	for _, fig := range figs {
		if err := fig.WriteFiles(*out); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Print(report)
	reportPath := filepath.Join(*out, *scenario+"-report.txt")
	if err := os.WriteFile(reportPath, []byte(report.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mantrasim: wrote %d figures and %s\n", len(figs), reportPath)
}

// replayIncident drives one scripted incident from the netsim library
// against a live monitor: deterministic background, dom00 transitioned
// to native sparse mode, the scenario's watch routers tracked. It
// prints the anomaly timeline as it unfolds and exits non-zero if the
// scenario's detection or resolution bound is missed.
func replayIncident(name, out string, quiet bool) {
	const (
		warmup   = 10
		duration = 6
	)
	sc, err := netsim.LibraryScenario(name, 1, duration)
	if err != nil {
		log.Fatalf("mantrasim: %v", err)
	}
	tcfg := topo.DefaultInternetConfig()
	tcfg.NumDomains = 4
	inet := topo.BuildInternet(tcfg)
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	ncfg := netsim.DefaultConfig()
	ncfg.FlapPerDomainPerCycle = 0
	ncfg.RestartPerCycle = 0
	n := netsim.New(inet, wl, ncfg)
	targets := []string{"fixw", "ucsb-r1", "dom00-gw"}
	if err := n.Track(targets...); err != nil {
		log.Fatalf("mantrasim: %v", err)
	}
	n.Step()
	n.Step()
	n.TransitionDomain("dom00")
	m := mantra.New()
	for _, t := range targets {
		n.Router(t).Password = "mantra"
		m.AddTarget(mantra.Target{
			Name:     t,
			Dialer:   collect.PipeDialer{Router: n.Router(t)},
			Password: "mantra",
			Prompt:   t + "> ",
		})
	}

	var lines []string
	printedID := -1
	resolvedSeen := make(map[int]bool)
	cycle := func(label string, idx int) {
		n.Step()
		if _, err := m.RunCycle(n.Now()); err != nil {
			log.Fatalf("mantrasim: cycle: %v", err)
		}
		for _, a := range m.Anomalies() {
			if a.ID > printedID {
				printedID = a.ID
				lines = append(lines, fmt.Sprintf("%s %s+%d ANOMALY  #%d %s %s at %s: %s",
					n.Now().Format("15:04"), label, idx, a.ID, a.Severity, a.Kind, a.Target, a.Detail))
			}
			if a.Resolved && !resolvedSeen[a.ID] {
				resolvedSeen[a.ID] = true
				lines = append(lines, fmt.Sprintf("%s %s+%d RESOLVED #%d %s at %s after %s",
					n.Now().Format("15:04"), label, idx, a.ID, a.Kind, a.Target, a.ResolvedAt.Sub(a.At)))
			}
		}
		if !quiet && len(lines) > 0 {
			for ; len(lines) > 0; lines = lines[1:] {
				fmt.Println(lines[0])
			}
		}
	}
	for i := 1; i <= warmup; i++ {
		cycle("warmup", i)
	}
	if err := n.ScheduleScenario(sc); err != nil {
		log.Fatalf("mantrasim: %v", err)
	}
	primary := sc.Watch[0]
	detected, resolvedIn := 0, 0
	check := func(off int, active bool) {
		for _, a := range m.Anomalies() {
			if a.Kind != sc.DetectKind || a.Target != primary {
				continue
			}
			if detected == 0 {
				detected = off
			}
			if !active && a.Resolved && resolvedIn == 0 {
				resolvedIn = off - duration
			}
		}
	}
	for off := 1; off <= duration; off++ {
		cycle("incident", off)
		check(off, true)
	}
	for off := duration + 1; off <= duration+sc.MaxResolveCycles+4; off++ {
		cycle("recovery", off-duration)
		check(off, false)
	}

	status := 0
	summary := fmt.Sprintf("incident %s: watch=%s kind=%s\n", name, strings.Join(sc.Watch, ","), sc.DetectKind)
	if detected == 0 {
		summary += fmt.Sprintf("  NOT DETECTED within %d incident cycles (bound %d)\n", duration, sc.MaxDetectCycles)
		status = 1
	} else {
		verdict := "ok"
		if detected > sc.MaxDetectCycles {
			verdict = "MISSED BOUND"
			status = 1
		}
		summary += fmt.Sprintf("  detected in %d cycle(s), bound %d: %s\n", detected, sc.MaxDetectCycles, verdict)
	}
	if resolvedIn == 0 {
		summary += fmt.Sprintf("  NOT RESOLVED within %d cycles of incident end (bound %d)\n",
			sc.MaxResolveCycles+4, sc.MaxResolveCycles)
		status = 1
	} else {
		verdict := "ok"
		if resolvedIn > sc.MaxResolveCycles {
			verdict = "MISSED BOUND"
			status = 1
		}
		summary += fmt.Sprintf("  resolved %d cycle(s) after incident end, bound %d: %s\n",
			resolvedIn, sc.MaxResolveCycles, verdict)
	}
	fmt.Print(summary)
	if err := os.MkdirAll(out, 0o755); err != nil {
		log.Fatal(err)
	}
	reportPath := filepath.Join(out, name+"-report.txt")
	if err := os.WriteFile(reportPath, []byte(summary), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mantrasim: wrote %s\n", reportPath)
	os.Exit(status)
}
