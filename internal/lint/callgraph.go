package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The call-edge layer the fact summaries stand on: a call resolves to a
// callee only when it is statically known, so a call through a function
// value or an interface method contributes no edge. The module-wide
// checks that consume the edges are tuned so that missing edges make
// them quieter, never wrong in the other direction. Function literals
// fold into their enclosing declaration, except literals launched with
// `go`: what a goroutine does is not what its spawner does, so those
// bodies are excluded from the enclosing function's facts.

// inspectOwnCode walks a function body, excluding work that `go`
// statements hand to other goroutines: a launched literal's body, and
// the launched call itself for named functions (`go s.run()` does not
// make the spawner block or loop). The call's argument expressions still
// evaluate on this goroutine and are kept. Deferred and
// immediately-invoked literals also run on this goroutine and are kept.
func inspectOwnCode(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			for _, arg := range g.Call.Args {
				ast.Inspect(arg, func(m ast.Node) bool { visit(m); return true })
			}
			return false
		}
		visit(n)
		return true
	})
}

// staticCallee resolves a call expression to its called *types.Func when
// the callee is statically known: a plain function, a method on a
// concrete receiver, or a package-qualified function. Calls through
// function values, built-ins and type conversions resolve to nil.
func staticCallee(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel := p.Info.Selections[fun]; sel != nil {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified: pkg.Func.
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// shortFuncName renders a function for finding messages: method
// receivers keep their type, package paths are trimmed to the last
// element ("(*Store).append", "collect.CollectAll").
func shortFuncName(fn *types.Func) string {
	if fn == nil {
		return "?"
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "(" + types.TypeString(sig.Recv().Type(), types.RelativeTo(fn.Pkg())) + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return pkgShort(fn.Pkg().Path()) + "." + fn.Name()
	}
	return fn.Name()
}

// pkgShort trims the import path from a package path or a qualified
// name: "repro/internal/core/shard.Supervisor.mu" → "shard.Supervisor.mu".
func pkgShort(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
