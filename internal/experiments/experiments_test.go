package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core/process"
	"repro/internal/testfault"
)

// runQuickUsage runs the Quick usage scenario once per test binary.
var quickUsage *Runner

func usageRunner(t *testing.T) *Runner {
	t.Helper()
	if quickUsage != nil {
		return quickUsage
	}
	r, err := NewRunner(UsageConfig(Quick))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(nil); err != nil {
		t.Fatal(err)
	}
	quickUsage = r
	return r
}

func TestUsageScenarioRuns(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	r := usageRunner(t)
	if len(r.Stats["fixw"]) == 0 || len(r.Stats["ucsb-r1"]) == 0 {
		t.Fatal("no stats collected")
	}
	s := r.Mon.Series("fixw", process.MetricSessions)
	if s == nil || s.Len() != len(r.Stats["fixw"]) {
		t.Errorf("series length mismatch")
	}
}

func TestUsageShapeQuick(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	r := usageRunner(t)
	rep := r.UsageShape()
	t.Logf("\n%s", rep)
	// At Quick scale (five domains, every one transitioning) the robust
	// checks must hold; ratio-rise and stabilization claims need the
	// Standard/Full mixed-world window and are verified by cmd/figures
	// runs recorded in EXPERIMENTS.md.
	for _, c := range rep.Checks {
		switch c.Name {
		case "participants drop after transition",
			"sender/participant ratio rises",
			"session availability stabilizes",
			"bandwidth saved (Fig 5 right)",
			"bandwidth magnitude (Fig 5 left)":
			if !c.Pass {
				t.Errorf("check failed: %+v", c)
			}
		}
	}
}

func TestRouteShapeQuick(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	r := usageRunner(t)
	rep := r.RouteShape()
	t.Logf("\n%s", rep)
	if !rep.Pass() {
		t.Errorf("route shape checks failed:\n%s", rep)
	}
}

func TestFiguresProduceData(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	r := usageRunner(t)
	for _, fig := range []FigureResult{r.Figure3(), r.Figure4(), r.Figure5(), r.Figure6(), r.Figure7()} {
		for _, p := range fig.Panels {
			if p.Series == nil || p.Series.Len() == 0 {
				t.Errorf("%s panel %s empty", fig.ID, p.Name)
			}
		}
		var csv, art strings.Builder
		if err := fig.WriteCSV(&csv); err != nil {
			t.Fatalf("%s csv: %v", fig.ID, err)
		}
		if !strings.HasPrefix(csv.String(), "time,") {
			t.Errorf("%s csv header: %q", fig.ID, csv.String()[:20])
		}
		if strings.Count(csv.String(), "\n") < 10 {
			t.Errorf("%s csv too short", fig.ID)
		}
		if err := fig.RenderASCII(&art, 60, 10); err != nil {
			t.Fatalf("%s ascii: %v", fig.ID, err)
		}
		if !strings.Contains(art.String(), fig.ID) {
			t.Errorf("%s ascii missing header", fig.ID)
		}
	}
}

func TestInjectionScenario(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	r, err := NewRunner(InjectionConfig(Quick))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(nil); err != nil {
		t.Fatal(err)
	}
	rep := r.InjectionShape()
	t.Logf("\n%s", rep)
	if !rep.Pass() {
		t.Errorf("injection shape failed:\n%s", rep)
	}
	fig := r.Figure9()
	if len(fig.Notes) == 0 {
		t.Error("figure 9 reports no anomalies")
	}
}

func TestLongTermScenario(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	r, err := NewRunner(LongTermConfig(Quick))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(nil); err != nil {
		t.Fatal(err)
	}
	rep := r.DeclineShape()
	t.Logf("\n%s", rep)
	if !rep.Pass() {
		t.Errorf("decline shape failed:\n%s", rep)
	}
}

func TestRunnerProgressCallback(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	cfg := InjectionConfig(Quick)
	cfg.End = cfg.Start.Add(5 * cfg.Cycle)
	cfg.InjectAt = cfg.Start.Add(2 * cfg.Cycle)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := r.Run(func(i int, _ time.Time) { calls++ }); err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Errorf("progress calls = %d, want 5", calls)
	}
}

func TestMonitorFromDelaysCollection(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	cfg := InjectionConfig(Quick)
	cfg.End = cfg.Start.Add(10 * cfg.Cycle)
	cfg.InjectAt = cfg.Start.Add(3 * cfg.Cycle)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.SetMonitorFrom(cfg.Start.Add(6 * cfg.Cycle))
	if err := r.Run(nil); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Stats["fixw"]); got != 5 {
		t.Errorf("monitored cycles = %d, want 5", got)
	}
}
