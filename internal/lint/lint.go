// Package lint is mantralint: a project-specific static-analysis suite
// enforcing the determinism, clock-injection, crash-safety and — since
// the pipelined cycle engine — concurrency invariants this repository
// has already been burned by. The schedule-equivalence guarantee
// (serial == pipelined WAL bytes) rests on byte-deterministic table
// state and on nothing mutating a snapshot after it crosses the engine's
// stage boundary; these analyzers make both classes of defect a build
// failure instead of a lucky test catch.
//
// The per-file syntactic checks (mapiter, floatsum, wallclock, walerr)
// inspect one package at a time. The concurrency
// checks (lockheld, sharedmut, goleak) are type-aware and
// cross-function: Run first builds an Analysis — a static call
// graph over every loaded package plus derived facts (which functions
// block, which loop without a stop path) — and the analyzers consult it,
// so a mutex held across a call chain ending in a channel send is found
// even when the send is three frames down in another package. The
// module-wide checks (hotalloc, lockorder, sertaint) run once per Run
// over per-package fact summaries — hot-path and sink markers,
// allocation sites, lock events and determinism-taint graphs extracted
// alongside the call facts (DESIGN.md §15).
//
// The suite is stdlib-only (go/parser, go/ast, go/types): the module has
// zero dependencies and must stay buildable offline. Findings are
// reported as file:line:col: [check] message; a finding is silenced by an
// explicit suppression comment on the same line (or the line above):
//
//	//mantralint:allow <check> <reason>
//
// The reason is mandatory; an allow comment naming an unknown check, or
// one whose line no longer triggers the named check (allowstale), is
// itself a finding — suppressions must never rot silently.
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
	// Check names the analyzer that produced the finding (or "allow" for
	// defects in suppression comments themselves).
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
	// Analyzer scoping keys off this, so fixtures can be loaded "as" any
	// package.
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
	// best-effort basis when they are non-empty; cmd/mantralint surfaces
	// them under -debug.
	TypeErrors []error
}

// Analysis is the module-wide context one Run shares across every
// analyzer: the packages under analysis plus the static call graph and
// its derived facts. Analyzers that only need single-package syntax
// ignore it.
type Analysis struct {
	Pkgs  []*Package
	Graph *CallGraph
}

// An Analyzer checks one invariant over one package.
type Analyzer struct {
	// Name is the check name used in findings and allow comments.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Run reports the analyzer's raw findings for one package, consulting
	// the shared Analysis for cross-function facts; suppression comments
	// are applied by the caller. It is nil for the module-wide checks,
	// whose findings come out of the global phase (global.go).
	Run func(a *Analysis, p *Package) []Finding
}

// Analyzers returns the full registry in stable (name) order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		floatSumAnalyzer,
		goLeakAnalyzer,
		hotAllocAnalyzer,
		lockHeldAnalyzer,
		lockOrderAnalyzer,
		mapIterAnalyzer,
		serTaintAnalyzer,
		sharedMutAnalyzer,
		walErrAnalyzer,
		wallClockAnalyzer,
	}
}

// ImplicitChecks are finding kinds produced by the framework itself
// rather than a registered analyzer: defects in allow comments ("allow")
// and allows whose line no longer triggers the named check
// ("allowstale"). They are valid in allow comments but cannot be
// selected with -checks.
func ImplicitChecks() []string { return []string{"allow", "allowstale"} }

// ByName resolves check names to analyzers, erroring on unknown names.
func ByName(names []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// CheckNames returns every registered check name, sorted.
func CheckNames() []string {
	var out []string
	for _, a := range Analyzers() {
		out = append(out, a.Name)
	}
	sort.Strings(out)
	return out
}

// Result is one run's output.
type Result struct {
	// Findings is the post-suppression finding list, position-sorted.
	Findings []Finding
	// HotRoots is the sorted //mantra:hotpath root set — the list the
	// testing.AllocsPerRun gates are pinned against.
	HotRoots []string
}

// Run is mantralint's one front end: cmd/mantralint hands it the whole
// module, a fixture test one package. It builds the shared Analysis,
// runs the per-package analyzers (packages in parallel — every analyzer
// input is read-only once the Analysis is built) and summarizes each
// package, runs the module-wide checks once over the summaries, applies
// the suppression comments, and returns the surviving findings sorted
// by position. Defective allow comments (unknown check, missing reason)
// are reported alongside, as are stale ones: an allow for a check that
// ran but suppressed nothing on its line is an "allowstale" finding, so
// a suppression can never outlive the violation it justified.
func Run(pkgs []*Package, analyzers []*Analyzer) *Result {
	valid := make(map[string]bool)
	for _, a := range Analyzers() {
		valid[a.Name] = true
	}
	for _, name := range ImplicitChecks() {
		valid[name] = true
	}
	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	a := &Analysis{Pkgs: pkgs, Graph: buildCallGraph(pkgs)}

	// Fan the packages out over the CPUs. Results land in a per-package
	// slot, so the concurrency cannot perturb finding order; the final
	// sort keys on position alone either way.
	perPkg := make([][]Finding, len(pkgs))
	sums := make([]*PkgSummary, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, p := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p *Package) {
			defer wg.Done()
			defer func() { <-sem }()
			var raw []Finding
			for _, an := range analyzers {
				if an.Run != nil {
					raw = append(raw, an.Run(a, p)...)
				}
			}
			perPkg[i], sums[i] = raw, Summarize(p)
		}(i, p)
	}
	wg.Wait()

	allows := make(allowSet)
	var out, raw []Finding
	for i, p := range pkgs {
		out = append(out, collectAllows(p, valid, allows)...)
		raw = append(raw, perPkg[i]...)
	}
	for _, f := range globalFindings(sums) {
		if ran[f.Check] {
			raw = append(raw, f)
		}
	}
	for _, f := range raw {
		if !allows.suppresses(f) {
			out = append(out, f)
		}
	}
	out = append(out, allows.stale(ran)...)
	sortFindings(out)
	return &Result{Findings: out, HotRoots: hotRoots(sums)}
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

// finding is the analyzers' shared constructor.
func (p *Package) finding(check string, pos token.Pos, format string, args ...any) Finding {
	return Finding{Pos: p.Fset.Position(pos), Check: check, Message: fmt.Sprintf(format, args...)}
}

// pkgFuncRef resolves a selector to (package path, name) when its X is an
// imported package identifier — the shared "is this time.Now / rand.Intn"
// helper. It works for both calls and bare function-value references.
func pkgFuncRef(p *Package, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := p.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// rootIdent returns the leftmost identifier of a (possibly nested)
// selector/index expression: out, out.Pairs, s.seg all root at the first
// identifier. Nil when the expression roots elsewhere (call results,
// literals).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether the identifier's object is declared
// inside the given node's span — used to tell per-iteration locals from
// state that outlives a loop.
func declaredWithin(p *Package, id *ast.Ident, n ast.Node) bool {
	if id == nil {
		return false
	}
	obj := p.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() >= n.Pos() && obj.Pos() < n.End()
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isFloat reports whether t is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// lastResultIsError reports whether the call's type is error or a tuple
// ending in error.
func lastResultIsError(p *Package, call *ast.CallExpr) bool {
	t := p.Info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(tup.Len() - 1).Type()
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// calleeName returns the called function's bare name: the selector's Sel
// for method and package-qualified calls, the identifier itself for local
// calls, "" otherwise.
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fn.Sel.Name
	case *ast.Ident:
		return fn.Name
	}
	return ""
}

// enclosingFuncBody returns the innermost function body in file that
// contains pos, or nil.
func enclosingFuncBody(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil && body.Pos() <= pos && pos < body.End() {
			if best == nil || (body.Pos() >= best.Pos() && body.End() <= best.End()) {
				best = body
			}
		}
		return true
	})
	return best
}
