package lint

import (
	"go/ast"
	"go/types"
)

// lockOrderAnalyzer builds a module-wide lock-acquisition graph: an
// edge A → B is recorded whenever lock class B (a named type's mutex
// field, or a package-level mutex) is acquired — directly or through
// any static call chain — while class A is held. A critical section
// runs from a Lock/RLock call to the first matching non-deferred
// Unlock/RUnlock on the same receiver, or to the end of the function
// when the unlock is deferred. Cycles in that graph, including the
// classic AB/BA pairwise inversion, are potential deadlocks: two
// goroutines entering the cycle from different points wedge forever,
// which is exactly how the collector's session-write deadlock presented.
// Direct recursive acquisition of one mutex expression is reported too
// (sync mutexes are not reentrant).
//
// The check runs module-wide: that wedge lived in internal/core/collect
// and was only found by a chaos test. Edges
// between two instances of the same class are not recorded: ordering
// between values of one type is identity the static graph cannot see.
var lockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisition cycle across the module call graph (lock-order inversion, recursive acquisition) — potential deadlock",
}

var lockMethods = map[string]bool{
	"(*sync.Mutex).Lock":    true,
	"(*sync.RWMutex).Lock":  true,
	"(*sync.RWMutex).RLock": true,
}

var unlockMethods = map[string]bool{
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RUnlock": true,
}

// lockCall matches a call to (R)Lock/(R)Unlock on a sync mutex,
// returning the receiver expression rendered as a string so sections on
// distinct locks (s.mu vs s.seglk) are tracked independently.
func lockCall(p *Package, call *ast.CallExpr, set map[string]bool) (recv string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	fn := staticCallee(p, call)
	if fn == nil || !set[fn.FullName()] {
		return "", false
	}
	return types.ExprString(sel.X), true
}
