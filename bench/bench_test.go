package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"testing"

	"repro/internal/core/engine"
)

// tinyRun runs w at the floor sizes (3 cycles, 50 requests), traced, so
// that every code path of both modes executes.
func tinyRun(t *testing.T, w spec, seconds float64) *result {
	t.Helper()
	dir := t.TempDir()
	res, err := run(w, runOptions{Seed: 5, Seconds: seconds, Trace: true, ScratchDir: dir, OutDir: dir})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	for _, f := range res.Failures {
		t.Errorf("%s: %s", w.Name, f)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: %d of %d operations failed", w.Name, res.Failed, res.Attempted)
	}
	return res
}

// The tests build each workload once: the median of several set-ups is
// for reporting.
func TestMain(m *testing.M) {
	setupRepeats = 1
	os.Exit(m.Run())
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the
// harness to.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func names(xs []struct{ Name string }) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.Name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at 3 cycles and 50 requests and holds
// the names it reports to the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkJSON
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := names(bf.Workloads); !slices.Equal(got, declared) {
		t.Errorf("BENCHMARK.json workloads %v, harness has %v", got, declared)
	}
	for _, w := range workloads {
		res := tinyRun(t, w, 0.01)
		if got, want := sortedNames(res.EndToEnd), names(bf.EndToEnd); !slices.Equal(got, want) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json declares %v", w.Name, got, want)
		}
		if got, want := sortedNames(res.PerLayer), names(bf.PerLayer); !slices.Equal(got, want) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json declares %v", w.Name, got, want)
		}
		for name, m := range res.EndToEnd {
			if name != "heap_mb_end" && m.Value <= 0 { // heap is measured by untraced runs only
				t.Errorf("%s: end-to-end metric %s is %v", w.Name, name, m.Value)
			}
		}
	}
}

// TestSameSeedSameView holds the determinism the digest check relies on:
// two runs of one seed publish identical views.
func TestSameSeedSameView(t *testing.T) {
	w, _ := findWorkload("durable-incidents")
	a, b := tinyRun(t, w, 1), tinyRun(t, w, 1)
	if a.Digest != b.Digest {
		t.Errorf("view digests differ for equal seeds: %s and %s", a.Digest, b.Digest)
	}
}

// TestLayersReconcile holds the layer walk to the systems it explains:
// over 20 cycles the walk's layers must add up to between 60 % and 110 %
// of the reference's serial cycle, and the reference Monitor's own
// per-stage totals must agree with the walk's matching layers within
// 25 %. Both are timings: run it on an otherwise idle machine.
func TestLayersReconcile(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertions")
	}
	for _, name := range []string{"dvmrp-fleet", "durable-incidents"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		// A noisy neighbour can push one attempt out of tolerance; three in
		// a row is a finding.
		var problems []string
		for attempt := 0; attempt < 3; attempt++ {
			if problems = reconcile(t, w); len(problems) == 0 {
				break
			}
		}
		for _, p := range problems {
			t.Error(p)
		}
	}
}

// reconcile runs 20 traced cycles of w and returns what disagrees.
func reconcile(t *testing.T, w spec) []string {
	var problems []string
	res := tinyRun(t, w, refSeconds*20/float64(w.Cycles))
	sum, serial := res.PerLayer["walk.sum_ms"].Value, res.PerLayer["walk.serial_cycle_ms"].Value
	t.Logf("%s: walk.sum_ms %.3f, serial reference %.3f, unexplained %.1f %%", w.Name, sum, serial, res.PerLayer["walk.unexplained_pct"].Value)
	if sum < 0.60*serial || sum > 1.10*serial {
		problems = append(problems, fmt.Sprintf("%s: walk sum %.3f ms is outside [60 %%, 110 %%] of the serial cycle %.3f ms", w.Name, sum, serial))
	}
	for _, st := range engine.OrderedStages {
		pair, ok := res.Stages[st]
		if !ok {
			continue
		}
		t.Logf("%s: stage %-9s engine %.3f ms, walk %.3f ms", w.Name, st, pair[0], pair[1])
		if lo, hi := 0.75*pair[0], 1.25*pair[0]; pair[1] < lo || pair[1] > hi {
			problems = append(problems, fmt.Sprintf("%s: stage %s: walk %.3f ms disagrees with the engine's %.3f ms by more than 25 %%", w.Name, st, pair[1], pair[0]))
		}
	}
	return problems
}
