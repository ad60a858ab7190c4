// Package lint holds the repository's one remaining static check,
// lockorder: a module-wide lock-acquisition graph whose cycles are
// potential deadlocks. Its bug shape (a lock-order inversion) otherwise
// shows only as a hang under `make race`; TestModuleSelfClean runs the
// check over the whole module in `go test ./...`, so an inversion fails
// tier-1 tests on every run. The other invariants the repository keeps
// are held by tests that drive the code (DESIGN.md §8, §14, §15).
//
// The check runs over per-package fact summaries — call edges and lock
// events extracted from each package's syntax — because an acquisition
// in one package can order against a lock held in another.
//
// The package is stdlib-only (go/parser, go/ast, go/types): the module
// has zero dependencies and must stay buildable offline. Findings are
// reported as file:line:col: [check] message.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
)

// Finding is one reported invariant violation.
type Finding struct {
	// Pos locates the violation.
	Pos token.Position
	// Check names the analyzer that produced the finding.
	Check string
	// Message describes the violation.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Package is one loaded, parsed and type-checked package under analysis.
type Package struct {
	// RelPath is the package's directory relative to the module root
	// ("" for the root package, "internal/core/logger", "cmd/mantra").
	// Fixtures can be loaded "as" any package.
	RelPath string
	// Name is the package name from the package clauses.
	Name string
	Fset *token.FileSet
	// Files holds the parsed non-test sources, comments included.
	Files []*ast.File
	// Types and Info carry the type-checker's results.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-check diagnostics. Analysis proceeds on a
	// best-effort basis when they are non-empty.
	TypeErrors []error
}

// An Analyzer names one module-wide check.
type Analyzer struct {
	// Name is the check name used in findings.
	Name string
	// Doc is a one-line description.
	Doc string
}

// Analyzers returns the registry.
func Analyzers() []*Analyzer {
	return []*Analyzer{lockOrderAnalyzer}
}

// Result is one run's output.
type Result struct {
	// Findings is the finding list, position-sorted.
	Findings []Finding
}

// Run summarizes each package (packages in parallel — every input is
// read-only), runs the selected module-wide checks once over the
// summaries, and returns their findings sorted by position. The whole
// module (TestModuleSelfClean) and a single fixture package go through
// the same path.
func Run(pkgs []*Package, analyzers []*Analyzer) *Result {
	// Results land in a per-package slot, so the concurrency cannot
	// perturb finding order; the final sort keys on position alone
	// either way.
	sums := make([]*PkgSummary, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, p := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p *Package) {
			defer wg.Done()
			defer func() { <-sem }()
			sums[i] = Summarize(p)
		}(i, p)
	}
	wg.Wait()

	var out []Finding
	for _, a := range analyzers {
		if a == lockOrderAnalyzer {
			lockOrderFindings(newSumIndex(sums), func(f Finding) { out = append(out, f) })
		}
	}
	sortFindings(out)
	return &Result{Findings: out}
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}
