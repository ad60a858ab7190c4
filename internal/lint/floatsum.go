package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatSumAnalyzer flags floating-point accumulation in map-iteration
// order, module-wide. Float addition is not associative: summing the same
// values in a different order produces different low bits, so any
// map-range accumulation whose result is later compared, logged or
// checksummed varies run to run — the stability MeanAvailability bug PR 3
// fixed. Integer accumulation commutes exactly and passes; the fix is the
// sorted-keys idiom (collect keys, sort, then sum).
var floatSumAnalyzer = &Analyzer{
	Name: "floatsum",
	Doc:  "floating-point accumulation in map-iteration order",
	Run:  runFloatSum,
}

func runFloatSum(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapType(p.Info.TypeOf(rs.X)) {
				return true
			}
			ast.Inspect(rs.Body, func(m ast.Node) bool {
				as, ok := m.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					return true
				}
				lhs := as.Lhs[0]
				if !isFloat(p.Info.TypeOf(lhs)) {
					return true
				}
				id := rootIdent(lhs)
				if id == nil || declaredWithin(p, id, rs) {
					return true // per-iteration local: order cannot leak
				}
				switch as.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
					out = append(out, floatFinding(p, as.Pos(), lhs))
				case token.ASSIGN:
					// x = x + v (and -, *, /) spelled out.
					if bin, ok := as.Rhs[0].(*ast.BinaryExpr); ok && selfReferential(bin, lhs) {
						out = append(out, floatFinding(p, as.Pos(), lhs))
					}
				}
				return true
			})
			return true
		})
	}
	return out
}

func floatFinding(p *Package, pos token.Pos, lhs ast.Expr) Finding {
	return p.finding("floatsum", pos,
		"floating-point accumulation into %s in map-iteration order is not byte-deterministic; sum over sorted keys",
		types.ExprString(lhs))
}

// selfReferential reports whether the binary expression's operand tree
// mentions lhs — the x = x + v shape.
func selfReferential(bin *ast.BinaryExpr, lhs ast.Expr) bool {
	want := types.ExprString(lhs)
	switch bin.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return false
	}
	found := false
	ast.Inspect(bin, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && types.ExprString(e) == want {
			found = true
			return false
		}
		return !found
	})
	return found
}
