// Command bench is the replay-driven benchmark of the monitoring cycle.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// runs one workload once and prints every metric by name with its unit,
// then one JSON object on the last line. Without -workload it runs the
// full set — every workload untraced, then traced — and prints a
// summary; -repeat N -check repeats the set and holds the spread of
// every end-to-end metric to its bound in BENCHMARK.json.
//
// The end-to-end metrics come from the untraced run only. The traced
// run repeats the workload with spans at the seams the harness owns and
// a serial walk through every layer's public functions; it reports the
// per-layer metrics.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runRecord is the "#result" line of one run, as the full-set mode
// reads it back from a child process.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Digest    string                 `json:"view_digest"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// Span files go to outDir; archives to a per-run directory under
// scratchRoot, removed when the run ends. Both are inside the checkout
// the command is run from.
var (
	outDir      = filepath.Join("bench", "out")
	scratchRoot = filepath.Join(".bench_build", "tmp")
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run; empty runs the full set")
		seed     = flag.Int64("seed", 1, "seed for everything that happens on the workload's fixed topology")
		seconds  = flag.Float64("seconds", refSeconds, "run length the cycle and request counts are scaled to")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		repeat   = flag.Int("repeat", 1, "full-set mode: how many sets to run")
		check    = flag.Bool("check", false, "full-set mode: fail if a spread exceeds its bound in BENCHMARK.json or a digest differs")
		basePath = flag.String("baseline", "", "full-set mode: write the sets' median, min and max per metric to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *name == "" {
		if err := fullSet(*seed, *seconds, *repeat, *check, *basePath); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	dir := filepath.Join(scratchRoot, fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	res, err := run(w, runOptions{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, ScratchDir: dir, OutDir: outDir})
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	report(res, *seed, *seconds)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// report prints a run for people, then for the full-set mode, then the
// contract's JSON object as the last line.
func report(res *result, seed int64, seconds float64) {
	printed, final := reportedMetrics(res)
	fmt.Printf("# workload %s seed %d seconds %g traced %v\n", res.Workload, seed, seconds, res.Traced)
	for _, n := range sortedNames(printed) {
		fmt.Printf("%-36s %14.4f %s\n", n, printed[n].Value, printed[n].Unit)
	}
	fmt.Printf("%-36s %14d count\n", "ops", res.Attempted)
	fmt.Printf("%-36s %14d count\n", "failed_ops", res.Failed)
	fmt.Printf("# view_digest %s\n", res.Digest)
	for _, f := range res.Failures {
		fmt.Println("# FAILED:", f)
	}
	// The two machine-readable lines are written field by field: the
	// shape is fixed, and the module's serialization lint treats every
	// json.Marshal of a value that has been near a Monitor as suspect.
	body := func(m map[string]metricValue) string {
		return fmt.Sprintf(`"correct":%v,"attempted":%d,"failed":%d,"metrics":%s`, res.Failed == 0, res.Attempted, res.Failed, metricsJSON(m))
	}
	fmt.Printf("#result {\"workload\":%q,\"seed\":%d,\"seconds\":%g,\"traced\":%v,\"view_digest\":%q,%s}\n",
		res.Workload, seed, seconds, res.Traced, res.Digest, body(printed))
	fmt.Printf("{%s}\n", body(final))
}

// userMetrics are the figures a user of the system sees that carry no
// bound (README.md says why each was demoted). Every run measures them;
// the untraced run, whose cycles nothing perturbs, is the one to quote,
// so it prints them and the full-set mode records them from it.
var userMetrics = []string{
	"cycle_ms_p90", "cycle_ms_p95", "dump_mb_per_s",
	"query_ms_p50", "query_ms_p99", "query_per_s",
	"archive_mb", "recover_ms", "detect_lag_cycles",
}

// reportedMetrics selects what a run prints and what its last line
// carries. An untraced run prints the end-to-end metrics and the
// user-visible ones beside them, and ends with the end-to-end metrics
// alone; a traced run prints and ends with the per-layer metrics.
func reportedMetrics(res *result) (printed, final map[string]metricValue) {
	if res.Traced {
		return res.PerLayer, res.PerLayer
	}
	printed = make(map[string]metricValue, len(res.EndToEnd)+len(userMetrics))
	for n, m := range res.EndToEnd {
		printed[n] = m
	}
	for _, n := range userMetrics {
		printed[n] = res.PerLayer[n]
	}
	return printed, res.EndToEnd
}

// sortedNames returns m's keys in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricsJSON renders metrics as a JSON object, names sorted, every
// value with all its digits.
func metricsJSON(metrics map[string]metricValue) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range sortedNames(metrics) {
		if i > 0 {
			b.WriteByte(',')
		}
		v := metrics[n].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(&b, `%q:{"value":%s,"unit":%q}`, n, strconv.FormatFloat(v, 'g', -1, 64), metrics[n].Unit)
	}
	b.WriteByte('}')
	return b.String()
}
