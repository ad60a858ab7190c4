// Command figures regenerates every figure of the paper's evaluation in
// one run: the usage scenario (Figures 3–7), the long-term scenario
// (Figure 8) and the injection day (Figure 9), writing CSV series, ASCII
// charts, and the combined paper-vs-measured shape report.
//
// The figure series are thin wrappers over the monitor's compressed
// long-horizon store: each panel streams out of the same range-query
// engine the daemon serves at /query.
//
//	figures -scale standard -out out/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
)

func main() {
	scale := flag.String("scale", "standard", "quick | standard | full")
	out := flag.String("out", "out", "output directory")
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
		log.Fatalf("figures: unknown scale %q", *scale)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	var all experiments.ShapeReport
	run := func(name string, cfg experiments.Config, figs func(*experiments.Runner) []experiments.FigureResult, shape func(*experiments.Runner) experiments.ShapeReport) {
		start := time.Now() //mantralint:allow wallclock operator-facing elapsed-time report; figure data itself runs on the simulated clock
		r, err := experiments.NewRunner(cfg)
		if err != nil {
			log.Fatal(err)
		}
		last := ""
		if err := r.Run(func(i int, now time.Time) {
			if d := now.Format("2006-01"); d != last {
				last = d
				fmt.Fprintf(os.Stderr, "figures: %s %s...\n", name, now.Format("2006-01"))
			}
		}); err != nil {
			log.Fatal(err)
		}
		for _, fig := range figs(r) {
			if err := fig.WriteFiles(*out); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("figures: wrote %s (%s)\n", fig.ID, fig.Title)
		}
		rep := shape(r)
		all.Checks = append(all.Checks, rep.Checks...)
		fmt.Printf("figures: %s finished in %v\n", name, time.Since(start).Round(time.Second)) //mantralint:allow wallclock operator-facing elapsed-time report; not part of any figure output
	}

	run("usage", experiments.UsageConfig(sc),
		func(r *experiments.Runner) []experiments.FigureResult {
			writeStability(*out, r)
			return []experiments.FigureResult{r.Figure3(), r.Figure4(), r.Figure5(), r.Figure6(), r.Figure7()}
		},
		func(r *experiments.Runner) experiments.ShapeReport {
			rep := r.UsageShape()
			rep.Checks = append(rep.Checks, r.RouteShape().Checks...)
			return rep
		})
	run("longterm", experiments.LongTermConfig(sc),
		func(r *experiments.Runner) []experiments.FigureResult {
			return []experiments.FigureResult{r.Figure8()}
		},
		func(r *experiments.Runner) experiments.ShapeReport { return r.DeclineShape() })
	run("injection", experiments.InjectionConfig(sc),
		func(r *experiments.Runner) []experiments.FigureResult {
			return []experiments.FigureResult{r.Figure9()}
		},
		func(r *experiments.Runner) experiments.ShapeReport { return r.InjectionShape() })

	fmt.Println()
	fmt.Print(all)
	path := filepath.Join(*out, "shape-report.txt")
	if err := os.WriteFile(path, []byte(all.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("figures: combined report at %s\n", path)
}

// writeStability records the per-prefix route-stability analysis of the
// usage run — the route lifetimes and flap counts §II-B calls for.
func writeStability(dir string, r *experiments.Runner) {
	f, err := os.Create(filepath.Join(dir, "stability.txt"))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	for _, target := range []string{"fixw", "ucsb-r1"} {
		rs := r.Mon.RouteStability(target)
		if rs == nil {
			continue
		}
		sum := rs.Summary()
		fmt.Fprintf(f, "%s: %d prefixes tracked over %d cycles; %d never flapped; mean availability %.3f; %d total flaps\n",
			target, sum.Prefixes, rs.Cycles(), sum.StablePrefixes, sum.MeanAvailability, sum.TotalFlaps)
		fmt.Fprintf(f, "least stable prefixes:\n")
		for _, st := range rs.LeastStable(10) {
			fmt.Fprintf(f, "  %-19s flaps=%-3d availability=%.3f mean-lifetime=%s\n",
				st.Prefix, st.Flaps, st.Availability, st.MeanLifetime.Round(time.Minute))
		}
		fmt.Fprintln(f)
	}
	fmt.Printf("figures: wrote stability report\n")
}
