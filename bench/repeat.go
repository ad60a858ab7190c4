// Full-set mode: every workload untraced and traced, each in its own
// process so that no run inherits another's heap, repeated on request
// and held to the bounds in BENCHMARK.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactMetrics must repeat exactly between sets of equal seeds.
var exactMetrics = []string{"ops", "failed_ops", "detect_lag_cycles", "collect.attempts", "collect.retries", "collect.degraded", "process.anomalies_opened"}

// child runs one workload in a fresh process and parses its #result line.
func child(workload string, seed int64, seconds float64, traced bool) (*runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (traced %v): %w", workload, traced, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "#result "); ok {
			var rec runRecord
			if err := json.Unmarshal([]byte(rest), &rec); err != nil {
				return nil, err
			}
			return &rec, nil
		}
	}
	return nil, fmt.Errorf("%s: no #result line", workload)
}

func fullSet(seed int64, seconds float64, repeat int, check bool, baselinePath string) error {
	fmt.Printf("# %s, GOMAXPROCS %d, %s\n", runtime.Version(), runtime.GOMAXPROCS(0), cpuModel())
	// runs[workload][metric] holds one value per set.
	runs := make(map[string]map[string][]float64)
	units := make(map[string]string)
	digests := make(map[string][]string)
	failed := 0
	for set := 0; set < repeat; set++ {
		for _, w := range workloads {
			if runs[w.Name] == nil {
				runs[w.Name] = make(map[string][]float64)
			}
			add := func(name string, v float64, unit string) {
				runs[w.Name][name] = append(runs[w.Name][name], v)
				units[name] = unit
			}
			var untracedP50 float64
			for _, traced := range []bool{false, true} {
				rec, err := child(w.Name, seed, seconds, traced)
				if err != nil {
					return err
				}
				failed += rec.Failed
				for name, m := range rec.Metrics {
					// The user-visible metrics are the untraced run's.
					if !traced || !slices.Contains(userMetrics, name) {
						add(name, m.Value, m.Unit)
					}
				}
				if !traced {
					add("ops", float64(rec.Attempted), "count")
					add("failed_ops", float64(rec.Failed), "count")
					digests[w.Name] = append(digests[w.Name], rec.Digest)
					untracedP50 = rec.Metrics["cycle_ms_p50"].Value
				} else {
					add("trace.overhead_pct", 100*(rec.Metrics["trace.cycle_ms_p50"].Value-untracedP50)/untracedP50, "%")
				}
				fmt.Printf("# set %d %s traced=%v ops=%d failed=%d\n", set, w.Name, traced, rec.Attempted, rec.Failed)
			}
		}
	}

	var bf benchmarkFile
	bounds := make(map[string]float64)
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	} else if check {
		return err
	}

	var violations []string
	for _, w := range workloads {
		fmt.Printf("\n== %s ==\n", w.Name)
		for _, n := range sortedNames(runs[w.Name]) {
			vs := runs[w.Name][n]
			med, lo, hi := median(vs), quantile(vs, 0), quantile(vs, 1)
			fmt.Printf("%-36s median %14.4f min %14.4f max %14.4f %s\n", n, med, lo, hi, units[n])
			// setup_s carries a bound on its median only, as in the driver.
			if bound, ok := bounds[n]; ok && n != "setup_s" && spread(vs) > bound {
				violations = append(violations, fmt.Sprintf("%s %s: spread %.1f%% exceeds bound %.1f%%", w.Name, n, 100*spread(vs), 100*bound))
			}
		}
		for _, n := range exactMetrics {
			if vs := runs[w.Name][n]; len(vs) > 0 && quantile(vs, 0) != quantile(vs, 1) {
				violations = append(violations, fmt.Sprintf("%s %s: not exactly repeated: %v", w.Name, n, vs))
			}
		}
		for _, d := range digests[w.Name] {
			if d != digests[w.Name][0] {
				violations = append(violations, fmt.Sprintf("%s: view_digest differs between sets", w.Name))
				break
			}
		}
		fmt.Printf("view_digest %s\n", digests[w.Name][0])
	}
	if failed > 0 {
		violations = append(violations, fmt.Sprintf("%d failed operations", failed))
	}
	if baselinePath != "" {
		if err := writeBaseline(baselinePath, seed, seconds, repeat, runs, units, digests); err != nil {
			return err
		}
	}
	summary, _ := json.Marshal(struct {
		Sets       int      `json:"sets"`
		Seed       int64    `json:"seed"`
		FailedOps  int      `json:"failed_ops"`
		Violations []string `json:"violations"`
		Claim      any      `json:"claim"`
	}{repeat, seed, failed, violations, nil})
	fmt.Printf("\n%s\n", summary)
	if check && len(violations) > 0 {
		return fmt.Errorf("%d check violations", len(violations))
	}
	return nil
}

// baselineStat is one metric of one workload across the sets.
type baselineStat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// writeBaseline records the sets' statistics with the machine they were
// measured on.
func writeBaseline(path string, seed int64, seconds float64, sets int, runs map[string]map[string][]float64, units map[string]string, digests map[string][]string) error {
	type workloadBaseline struct {
		ViewDigest string                  `json:"view_digest"`
		Metrics    map[string]baselineStat `json:"metrics"`
	}
	out := struct {
		Go         string                      `json:"go"`
		GOMAXPROCS int                         `json:"gomaxprocs"`
		CPU        string                      `json:"cpu"`
		Sets       int                         `json:"sets"`
		Seed       int64                       `json:"seed"`
		Seconds    float64                     `json:"seconds"`
		Workloads  map[string]workloadBaseline `json:"workloads"`
	}{runtime.Version(), runtime.GOMAXPROCS(0), cpuModel(), sets, seed, seconds, make(map[string]workloadBaseline)}
	for name, metrics := range runs {
		wb := workloadBaseline{ViewDigest: digests[name][0], Metrics: make(map[string]baselineStat)}
		for m, vs := range metrics {
			wb.Metrics[m] = baselineStat{units[m], median(vs), quantile(vs, 0), quantile(vs, 1)}
		}
		out.Workloads[name] = wb
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown CPU"
}
