package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture module is loaded once: stdlib source type-checking dominates
// the cost and every fixture shares it through the module's file set.
var (
	modOnce sync.Once
	mod     *Module
	modErr  error
)

func fixtureModule(t *testing.T) *Module {
	t.Helper()
	modOnce.Do(func() { mod, modErr = NewModule(".") })
	if modErr != nil {
		t.Fatal(modErr)
	}
	return mod
}

// loadFixture type-checks testdata/<fixture> as if it were the module
// package at rel, so package-scoped analyzers see the path they key on.
func loadFixture(t *testing.T, fixture, rel string) *Package {
	t.Helper()
	p, err := fixtureModule(t).LoadDirAs(filepath.Join("testdata", fixture), rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TypeErrors) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", fixture, p.TypeErrors)
	}
	return p
}

// want is one expected finding: a regexp that must match some finding
// rendered as "[check] message" on the annotated line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantChunkRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// collectWants parses `// want "re"` / `// want ` + "`re`" annotations
// (several per comment allowed) from the fixture's comments.
func collectWants(t *testing.T, p *Package) []want {
	t.Helper()
	var out []want
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				_, rest, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				chunks := wantChunkRe.FindAllStringSubmatch(rest, -1)
				if len(chunks) == 0 {
					t.Fatalf("%s:%d: want annotation with no quoted pattern", pos.Filename, pos.Line)
				}
				for _, ch := range chunks {
					expr := ch[1]
					if expr == "" {
						expr = ch[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, expr, err)
					}
					out = append(out, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// checkFixture runs every analyzer over the fixture and matches findings
// against its want annotations: every finding must be wanted, every want
// must be found.
func checkFixture(t *testing.T, fixture, rel string) {
	t.Helper()
	p := loadFixture(t, fixture, rel)
	findings := Run([]*Package{p}, Analyzers()).Findings
	wants := collectWants(t, p)

	matched := make([]bool, len(wants))
	for _, f := range findings {
		rendered := fmt.Sprintf("[%s] %s", f.Check, f.Message)
		hit := false
		for i, w := range wants {
			if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(rendered) {
				matched[i] = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: wanted finding matching %q not reported", w.file, w.line, w.re)
		}
	}
}

func TestMapIterFixture(t *testing.T)   { checkFixture(t, "mapiter", "internal/core/logger") }
func TestWallClockFixture(t *testing.T) { checkFixture(t, "wallclock", "internal/core/engine") }
func TestWalErrFixture(t *testing.T)    { checkFixture(t, "walerr", "internal/core/logger") }
func TestFloatSumFixture(t *testing.T)  { checkFixture(t, "floatsum", "internal/netsim") }
func TestHotAllocFixture(t *testing.T)  { checkFixture(t, "hotalloc", "internal/netsim") }
func TestLockOrderFixture(t *testing.T) {
	checkFixture(t, "lockorder", "internal/netsim")
}

// TestAllowStaleFixture: an allow whose line no longer violates the
// named check is itself reported, and the report is itself allowable.
func TestAllowStaleFixture(t *testing.T) {
	checkFixture(t, "allowstale", "internal/netsim")
}

// TestMapIterScoping loads the violating shape as a package outside the
// determinism-critical set; mapiter must stay silent there.
func TestMapIterScoping(t *testing.T) {
	p := loadFixture(t, "mapiterscope", "internal/netsim")
	if fs := Run([]*Package{p}, Analyzers()).Findings; len(fs) != 0 {
		t.Fatalf("non-critical package produced findings: %v", fs)
	}
}

// TestMapIterScopeApplies is the control for TestMapIterScoping: the same
// fixture loaded as a determinism-critical path must be flagged.
func TestMapIterScopeApplies(t *testing.T) {
	p := loadFixture(t, "mapiterscope", "internal/core/tables")
	fs := Run([]*Package{p}, Analyzers()).Findings
	if len(fs) != 1 || fs[0].Check != "mapiter" {
		t.Fatalf("findings = %v, want exactly one mapiter", fs)
	}
}

// TestSuppressionPrecision proves an allow silences exactly the named
// check on exactly its line — the want annotations in the fixture mark
// what must survive.
func TestSuppressionPrecision(t *testing.T) {
	checkFixture(t, "suppressprecision", "internal/netsim")
}

// TestPR3RegressionShapes keeps the two bug shapes PR 3 fixed permanently
// detectable: the delta-log removal-set append and the stability float
// accumulation.
func TestPR3RegressionShapes(t *testing.T) {
	checkFixture(t, "pr3regress", "internal/core/logger")
	p := loadFixture(t, "pr3regress", "internal/core/logger")
	byCheck := make(map[string]int)
	for _, f := range Run([]*Package{p}, Analyzers()).Findings {
		byCheck[f.Check]++
	}
	if byCheck["mapiter"] == 0 || byCheck["floatsum"] == 0 {
		t.Fatalf("PR 3 bug shapes no longer detected: %v", byCheck)
	}
}

// TestAllowDefects asserts the three defective-allow cases directly (a
// want annotation appended to an allow comment would become its reason,
// so this fixture cannot self-annotate).
func TestAllowDefects(t *testing.T) {
	p := loadFixture(t, "allowdefects", "internal/netsim")
	findings := Run([]*Package{p}, Analyzers()).Findings
	var allowMsgs []string
	wallclock := 0
	for _, f := range findings {
		switch f.Check {
		case "allow":
			allowMsgs = append(allowMsgs, f.Message)
		case "wallclock":
			wallclock++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if len(allowMsgs) != 3 {
		t.Fatalf("allow defects = %v, want 3", allowMsgs)
	}
	for i, wantSub := range []string{
		`unknown check "mapitre"`,
		`for "wallclock" has no reason`,
		"names no check",
	} {
		if !strings.Contains(allowMsgs[i], wantSub) {
			t.Errorf("allow defect %d = %q, want substring %q", i, allowMsgs[i], wantSub)
		}
	}
	// None of the defective allows suppressed anything: all three
	// wall-clock reads still report.
	if wallclock != 3 {
		t.Errorf("wallclock findings = %d, want 3 (defective allows must not suppress)", wallclock)
	}
}

// TestLockOrderRegress pins the PR 6 session-write wedge: an AB/BA
// inversion between the session and write-queue mutexes, living in
// internal/core/collect, which a chaos test found before any check did.
// Both legs must report.
func TestLockOrderRegress(t *testing.T) {
	checkFixture(t, "lockorderregress", "internal/core/collect")
	p := loadFixture(t, "lockorderregress", "internal/core/collect")
	lockorder := 0
	for _, f := range Run([]*Package{p}, Analyzers()).Findings {
		if f.Check == "lockorder" {
			lockorder++
		}
	}
	if lockorder < 2 {
		t.Fatalf("lockorder findings = %d, want both legs of the PR 6 wedge", lockorder)
	}
}

// TestHotpathDefects asserts the marker-defect cases directly (a want
// annotation appended to a marker comment would parse as the marker's
// argument, so that fixture cannot self-annotate). They report under
// hotalloc, the check whose root set a defective marker would shrink.
func TestHotpathDefects(t *testing.T) {
	p := loadFixture(t, "hotpathdefects", "internal/netsim")
	var msgs []string
	for _, f := range Run([]*Package{p}, Analyzers()).Findings {
		if f.Check != "hotalloc" {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		msgs = append(msgs, f.Message)
	}
	if len(msgs) != 5 {
		t.Fatalf("hotpath defects = %d (%v), want 5", len(msgs), msgs)
	}
	for i, wantSub := range []string{
		"dangling //mantra:hotpath",
		`budget "zero" is not a non-negative integer`,
		"marker takes at most one argument",
		"duplicate //mantra:hotpath on dup",
		"dangling //mantra:hotpath",
	} {
		if !strings.Contains(msgs[i], wantSub) {
			t.Errorf("hotpath defect %d = %q, want substring %q", i, msgs[i], wantSub)
		}
	}
}

func TestByName(t *testing.T) {
	as, err := ByName([]string{"mapiter", "walerr"})
	if err != nil || len(as) != 2 || as[0].Name != "mapiter" || as[1].Name != "walerr" {
		t.Fatalf("ByName = %v, %v", as, err)
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Fatal("unknown check name accepted")
	}
	names := CheckNames()
	wantNames := []string{
		"floatsum", "hotalloc", "lockorder", "mapiter", "walerr", "wallclock",
	}
	if strings.Join(names, ",") != strings.Join(wantNames, ",") {
		t.Fatalf("CheckNames = %v, want %v", names, wantNames)
	}
}

// The whole module is linted once for the two tests that need it.
var (
	selfOnce sync.Once
	selfPkgs []*Package
	selfRes  *Result
	selfErr  error
)

func moduleRun(t *testing.T) ([]*Package, *Result) {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	m := fixtureModule(t)
	selfOnce.Do(func() {
		if selfPkgs, selfErr = m.LoadAll(); selfErr == nil {
			selfRes = Run(selfPkgs, Analyzers())
		}
	})
	if selfErr != nil {
		t.Fatal(selfErr)
	}
	return selfPkgs, selfRes
}

// TestModuleSelfClean is the enforced version of the self-clean pass:
// every package in the repository must lint clean, so `make lint` exiting
// zero is guaranteed by `go test` too.
func TestModuleSelfClean(t *testing.T) {
	pkgs, res := moduleRun(t)
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Errorf("package %q has type errors: %v", p.RelPath, p.TypeErrors[0])
		}
	}
	for _, f := range res.Findings {
		t.Errorf("finding on clean tree: %s", f)
	}
}

// TestHotRootsPinned pins the //mantra:hotpath root set. The
// AllocsPerRun gates in hotpath_gate_test.go (repo root) exercise the
// dynamic side of the key roots; this list is the static side, so a
// marker silently added, moved or dropped shows up as a diff here and
// keeps the two views from drifting. Update both together.
func TestHotRootsPinned(t *testing.T) {
	_, res := moduleRun(t)
	want := []string{
		"(*repro/internal/core/collect.Collector).Collect",
		"(*repro/internal/core/collect.Session).Run",
		"(*repro/internal/core/collect.Session).readUntil",
		"(*repro/internal/core/collect.Session).send",
		"(*repro/internal/core/cycle.Core).stageCollect",
		"(*repro/internal/core/cycle.Core).stageLog",
		"(*repro/internal/core/cycle.Core).stageNormalize",
		"(*repro/internal/core/engine.Engine).Run",
		"(*repro/internal/core/engine.Engine).finishCycle",
		"(*repro/internal/core/logger.Logger).Append",
		"(*repro/internal/core/logger.Store).append",
		"(*repro/internal/core/process.RouteStability).ObserveDelta",
		"(*repro/internal/core/seglog.Log).Append",
		"(*repro/internal/core/seglog.Log).create",
		"(*repro/internal/core/tsdb.Store).Append",
		"(repro/internal/core/tables.table[E]).parse",
		"repro/internal/addr.Parse",
		"repro/internal/addr.ParsePrefix",
		"repro/internal/core/collect.CheckDump",
		"repro/internal/core/collect.CollectAll",
		"repro/internal/core/collect.Login",
		"repro/internal/core/collect.Preprocess",
		"repro/internal/core/logger.encodePayload",
		"repro/internal/core/seglog.Name",
		"repro/internal/core/tables.ScanDumps",
		"repro/internal/core/tables.igmpRow",
		"repro/internal/core/tables.mbgpRow",
		"repro/internal/core/tables.pairRow",
		"repro/internal/core/tables.parseUptime",
		"repro/internal/core/tables.routeRow",
		"repro/internal/core/tables.saRow",
		"repro/internal/core/tables.sorted",
		"repro/internal/core/tables.union",
	}
	got := res.HotRoots
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("hot-path root set drifted:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// lintTree writes files as a throwaway module, lints it whole and
// returns the rendered findings.
func lintTree(t *testing.T, files map[string]string) []string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module crosstest\n\ngo 1.21\n"
	for rel, content := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := m.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range Run(pkgs, Analyzers()).Findings {
		out = append(out, f.String())
	}
	return out
}

const crossHotDep = `package a

import "fmt"

// Render allocates through fmt; it is hot only while some root
// reaches it.
func Render(n int) string {
	return fmt.Sprintf("%d", n)
}
`

const crossHotRoot = `package b

import "crosstest/a"

//mantra:hotpath
func Cycle() string {
	return a.Render(1)
}
`

// TestCrossPackageGlobalPhase: the module-wide checks join facts across
// package boundaries, which no single-package fixture can show. In each
// case package b alone decides whether package a has a finding, and the
// finding carries a's module-root-relative path.
func TestCrossPackageGlobalPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks throwaway modules")
	}
	for _, tc := range []struct {
		name     string
		a, b     string
		old, new string // the edit to b that flips a's finding
		before   string // what the one finding before the edit says ("" = clean)
		after    string // what a finding after the edit says ("" = clean)
	}{
		{"hotalloc root elsewhere", crossHotDep, crossHotRoot,
			"//mantra:hotpath\n", "", "a/a.go:8:9: [hotalloc] fmt.Sprintf call (formats through interfaces, allocates) in a.Render (reachable from //mantra:hotpath root b.Cycle;", ""},
	} {
		check := func(step string, got []string, want string) {
			t.Helper()
			if want == "" {
				if len(got) != 0 {
					t.Errorf("%s, %s: findings = %v, want none", tc.name, step, got)
				}
				return
			}
			if !strings.Contains(strings.Join(got, "\n"), want) {
				t.Errorf("%s, %s: no finding containing %q in %v", tc.name, step, want, got)
			}
		}
		before := lintTree(t, map[string]string{"a/a.go": tc.a, "b/b.go": tc.b})
		if tc.before != "" && len(before) != 1 {
			t.Errorf("%s, before: findings = %v, want exactly one", tc.name, before)
		}
		check("before", before, tc.before)
		edited := strings.Replace(tc.b, tc.old, tc.new, 1)
		check("after", lintTree(t, map[string]string{"a/a.go": tc.a, "b/b.go": edited}), tc.after)
	}
}
