package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockScopePkgs are the packages that sit on the engine's concurrency
// boundary: the pipeline itself, the HTTP output layer it publishes
// through, the WAL the ordered stages append to, the SNMP transport,
// and the shard supervisor whose heartbeat/checkpoint state is shared
// between the driver and worker goroutines. A mutex held across a
// blocking operation there is a latency cliff for every target behind
// the lock (and a deadlock when the blocked operation's peer needs the
// same lock — the shard supervisor's handoff path in particular closes
// request channels and joins workers, which must never happen under a
// lock a worker needs to beat its heartbeat).
var lockScopePkgs = map[string]bool{
	"internal/core/engine": true,
	"internal/core/cycle":  true,
	"internal/core/output": true,
	"internal/core/logger": true,
	"internal/core/seglog": true,
	"internal/core/shard":  true,
	"internal/core/tsdb":   true,
	"internal/snmp":        true,
}

// lockHeldAnalyzer flags a sync.Mutex/RWMutex critical section that
// contains a blocking operation — a channel send or receive, select,
// time.Sleep, fsync, network I/O — either directly or through a call
// chain resolved on the module call graph. The critical section spans
// from the Lock/RLock call to the first matching non-deferred
// Unlock/RUnlock on the same receiver, or to the end of the function
// when the unlock is deferred. Operations inside `go` literals belong to
// the spawned goroutine, not the section, and are skipped.
var lockHeldAnalyzer = &Analyzer{
	Name: "lockheld",
	Doc:  "mutex held across a blocking operation (channel op, select, sleep, fsync, network I/O) in the engine-boundary packages",
	Run:  runLockHeld,
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

func runLockHeld(a *Analysis, p *Package) []Finding {
	if !lockScopePkgs[p.RelPath] {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			out = append(out, checkLockSections(a, p, fd)...)
			return true
		})
	}
	return out
}

// lockEvent is one (un)lock call found in a function, in source order.
type lockEvent struct {
	recv     string
	pos      token.Pos
	unlock   bool
	deferred bool
}

// checkLockSections finds every critical section in the function and
// reports blocking operations inside it.
func checkLockSections(a *Analysis, p *Package, fd *ast.FuncDecl) []Finding {
	var events []lockEvent
	// A DeferStmt is visited before its CallExpr child; remember the call
	// so it is not double-counted as an immediate unlock (which would end
	// the section at the defer statement instead of function end).
	deferredCalls := make(map[*ast.CallExpr]bool)
	inspectOwnCode(fd.Body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.DeferStmt:
			deferredCalls[x.Call] = true
			if recv, ok := lockCall(p, x.Call, unlockMethods); ok {
				events = append(events, lockEvent{recv: recv, pos: x.Call.Pos(), unlock: true, deferred: true})
			}
		case *ast.CallExpr:
			if deferredCalls[x] {
				return
			}
			if recv, ok := lockCall(p, x, lockMethods); ok {
				events = append(events, lockEvent{recv: recv, pos: x.Pos()})
			} else if recv, ok := lockCall(p, x, unlockMethods); ok {
				events = append(events, lockEvent{recv: recv, pos: x.Pos(), unlock: true})
			}
		}
	})

	var out []Finding
	for _, ev := range events {
		if ev.unlock {
			continue
		}
		// The section runs from this Lock to the first non-deferred
		// Unlock on the same receiver after it; a deferred unlock (or
		// none — the caller-must-unlock pattern) holds to function end.
		end := fd.Body.End()
		for _, un := range events {
			if un.unlock && !un.deferred && un.recv == ev.recv && un.pos > ev.pos {
				end = un.pos
				break
			}
		}
		out = append(out, blockingOpsIn(a, p, fd, ev, end)...)
	}
	return out
}

// blockingOpsIn reports every blocking operation between a lock event
// and end: direct channel/select/sleep/fsync/network operations, and
// calls to module functions whose blocking fact is set on the call
// graph.
func blockingOpsIn(a *Analysis, p *Package, fd *ast.FuncDecl, ev lockEvent, end token.Pos) []Finding {
	var out []Finding
	seen := make(map[token.Pos]bool)
	inspectOwnCode(fd.Body, func(n ast.Node) {
		if n == nil || n.Pos() <= ev.pos || n.Pos() >= end {
			return
		}
		if desc, pos, ok := directBlockOp(p, n); ok {
			if !seen[pos] {
				seen[pos] = true
				out = append(out, p.finding("lockheld", pos,
					"%s held across %s; move the blocking operation outside the critical section", ev.recv, desc))
			}
			return
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee := staticCallee(p, call)
		if callee == nil {
			return
		}
		if cause := a.Graph.BlockingCause(callee); cause != nil && !seen[call.Pos()] {
			seen[call.Pos()] = true
			out = append(out, p.finding("lockheld", call.Pos(),
				"%s held across call to %s, which blocks (%s); move the blocking call outside the critical section",
				ev.recv, shortFuncName(callee), cause.desc))
		}
	})
	return out
}
