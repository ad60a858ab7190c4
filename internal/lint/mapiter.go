package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// deterministicPkgs are the packages whose outputs feed serialization,
// checksumming or the schedule-equivalence guarantee: a map iteration
// whose order leaks into their results is the exact bug class PR 3 fixed
// twice (the delta-log removal sets and the stability float sum).
var deterministicPkgs = map[string]bool{
	"internal/core/logger":  true,
	"internal/core/process": true,
	"internal/core/tables":  true,
	"internal/core/engine":  true,
	"internal/core/cycle":   true,
	"internal/core/tsdb":    true,
	"internal/dvmrp":        true,
	"internal/pim":          true,
	"internal/msdp":         true,
	"internal/mbgp":         true,
}

// mapIterAnalyzer flags `range` over a map in a determinism-critical
// package when the body's effects are order-sensitive:
//
//   - appending to a slice that outlives the loop, unless the same slice
//     is sorted later in the function (the sanctioned collect-then-sort
//     pattern);
//   - writing, printing, encoding or hashing into a sink that outlives
//     the loop — serialized bytes must never depend on iteration order.
//
// Order-insensitive bodies — building another map, deleting keys, integer
// counting — pass. Floating-point accumulation is the module-wide
// floatsum check.
var mapIterAnalyzer = &Analyzer{
	Name: "mapiter",
	Doc:  "map-iteration order leaking into slices or serialized output in determinism-critical packages",
	Run:  runMapIter,
}

// writeMethods are method names that emit bytes or fold state in call
// order: one call per map iteration makes the result order-dependent.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Sum": true, "Sum32": true, "Sum64": true, "Checksum": true,
}

// writePkgFuncs are package-qualified functions with the same property.
// The empty sink means the function writes to a process-global stream.
var writePkgFuncs = map[string]int{ // value: index of the sink argument, -1 for global
	"fmt.Fprint": 0, "fmt.Fprintf": 0, "fmt.Fprintln": 0,
	"fmt.Print": -1, "fmt.Printf": -1, "fmt.Println": -1,
	"io.WriteString": 0,
	"binary.Write":   0,
	"crc32.Update":   -1,
}

func runMapIter(_ *Analysis, p *Package) []Finding {
	if !deterministicPkgs[p.RelPath] {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapType(p.Info.TypeOf(rs.X)) {
				return true
			}
			if rs.Key == nil && rs.Value == nil {
				// `for range m` — the body cannot observe keys, so its
				// repetitions are order-independent.
				return true
			}
			out = append(out, checkMapRangeBody(p, file, rs)...)
			return true
		})
	}
	return out
}

func checkMapRangeBody(p *Package, file *ast.File, rs *ast.RangeStmt) []Finding {
	var out []Finding
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.RangeStmt:
			// A nested map range reports independently.
			if stmt != rs && isMapType(p.Info.TypeOf(stmt.X)) {
				return false
			}
		case *ast.AssignStmt:
			if dest, ok := appendDest(stmt); ok {
				id := rootIdent(dest)
				if id == nil || declaredWithin(p, id, rs) {
					return true // per-iteration local: order-independent
				}
				if !sortedAfter(p, file, rs, dest) {
					out = append(out, p.finding("mapiter", stmt.Pos(),
						"append to %s in map-iteration order with no later sort; collect then sort, or iterate sorted keys",
						types.ExprString(dest)))
				}
			}
		case *ast.CallExpr:
			if f := checkOrderedWrite(p, rs, stmt); f != nil {
				out = append(out, *f)
			}
		}
		return true
	})
	return out
}

// appendDest matches `dest = append(dest, ...)` (and append-to-field
// variants), returning the destination expression.
func appendDest(as *ast.AssignStmt) (ast.Expr, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
		return nil, false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
		return nil, false
	}
	return as.Lhs[0], true
}

// sortedAfter reports whether the slice built inside the range is handed
// to a sorting call later in the same function: sort.Slice(dest, ...),
// sort.Strings(dest), or a local helper whose name contains "sort"
// (sortPairs(dest), sortTargetStats(dest)). That is the repo's sanctioned
// collect-then-sort idiom, and it is what makes the loop deterministic.
func sortedAfter(p *Package, file *ast.File, rs *ast.RangeStmt, dest ast.Expr) bool {
	body := enclosingFuncBody(file, rs.Pos())
	if body == nil {
		return false
	}
	want := types.ExprString(dest)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		// Match on the full callee expression so sort.Slice, sort.Strings,
		// slices.Sort, sortPairs and dest.Sort() all qualify.
		name := strings.ToLower(types.ExprString(call.Fun))
		if !strings.Contains(name, "sort") {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) == want {
				found = true
				return false
			}
		}
		// Method form dest.Sort() / sort on the receiver.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if types.ExprString(sel.X) == want {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkOrderedWrite flags serialization/hash calls inside the map range
// whose sink outlives the loop.
func checkOrderedWrite(p *Package, rs *ast.RangeStmt, call *ast.CallExpr) *Finding {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if pkgPath, name, ok := pkgFuncRef(p, sel); ok {
		short := pkgShort(pkgPath) + "." + name
		argIdx, hit := writePkgFuncs[short]
		if !hit {
			return nil
		}
		if argIdx >= 0 && argIdx < len(call.Args) {
			if id := rootIdent(call.Args[argIdx]); id != nil && declaredWithin(p, id, rs) {
				return nil // sink is per-iteration local
			}
		}
		f := p.finding("mapiter", call.Pos(),
			"%s inside a map range serializes in iteration order; iterate sorted keys", short)
		return &f
	}
	// Method call: x.Write(...), enc.Encode(...), h.Sum(...).
	if !writeMethods[sel.Sel.Name] {
		return nil
	}
	if p.Info.Selections[sel] == nil {
		return nil // not a method selection (e.g. a struct field holding a func)
	}
	if id := rootIdent(sel.X); id != nil && declaredWithin(p, id, rs) {
		return nil
	}
	// Writing into a per-iteration value of the ranged map itself is fine;
	// writing into anything that outlives the loop is not.
	f := p.finding("mapiter", call.Pos(),
		"%s.%s inside a map range serializes in iteration order; iterate sorted keys",
		types.ExprString(sel.X), sel.Sel.Name)
	return &f
}

func pkgShort(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
