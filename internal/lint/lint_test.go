package lint

import (
	"fmt"
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
// package at rel, so its lock classes carry that package's name.
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

func TestLockOrderFixture(t *testing.T) {
	checkFixture(t, "lockorder", "internal/netsim")
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

// The whole module is checked once, by TestModuleSelfClean.
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

// TestModuleSelfClean runs lockorder over every package in the
// repository: a lock-order cycle anywhere fails `go test ./...`.
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
