package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

var reportFixture = []Finding{
	{Pos: token.Position{Filename: "internal/core/engine/engine.go", Line: 12, Column: 3},
		Check: "lockheld", Message: "mu held across channel send"},
	{Pos: token.Position{Filename: "internal/core/logger/wal.go", Line: 40, Column: 9},
		Check: "walerr", Message: "Sync error silently dropped"},
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, reportFixture); err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d findings, want 2", len(got))
	}
	if got[0]["check"] != "lockheld" || got[0]["line"] != float64(12) ||
		got[0]["file"] != "internal/core/engine/engine.go" {
		t.Errorf("first finding = %v", got[0])
	}

	// A clean run must encode as an empty array, not null.
	buf.Reset()
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(buf.String()); s != "[]" {
		t.Errorf("empty run encodes as %q, want []", s)
	}
}

func TestWriteSARIF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, reportFixture); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version=%q runs=%d, want 2.1.0 and one run", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "mantralint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	// Every registered check plus the two implicit ones is a rule, and
	// every result's ruleId resolves to a rule.
	wantRules := len(CheckNames()) + len(ImplicitChecks())
	if len(run.Tool.Driver.Rules) != wantRules {
		t.Errorf("rules = %d, want %d", len(run.Tool.Driver.Rules), wantRules)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	for _, res := range run.Results {
		if !ruleIDs[res.RuleID] {
			t.Errorf("result ruleId %q has no rule", res.RuleID)
		}
	}
	loc := run.Results[0].Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/core/engine/engine.go" || loc.Region.StartLine != 12 {
		t.Errorf("first location = %+v", loc)
	}
}

// BenchmarkMantralintModule times a full module lint after the load —
// call-graph and fact construction, all analyzers over all packages, the
// global phase.
func BenchmarkMantralintModule(b *testing.B) {
	mod, err := NewModule(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := mod.LoadAll()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fs := Run(pkgs, Analyzers()).Findings; len(fs) != 0 {
			b.Fatalf("module not clean: %v", fs[0])
		}
	}
}
