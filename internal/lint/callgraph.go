package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the cross-function layer the concurrency analyzers stand
// on: a lightweight static call graph over the loaded packages plus a
// fact store of per-function properties derived by fixpoint over it.
//
// The graph is deliberately modest — direct calls only. A call through a
// function value or an interface method has no static callee and
// contributes no edge; the analyzers that consume the graph are tuned so
// that missing edges make them quieter, never wrong in the other
// direction. Function literals fold into their enclosing declaration,
// except literals launched with `go`: what a goroutine does is not what
// its spawner does (a send inside `go func(){...}` does not block the
// spawning frame), so those bodies are excluded from the enclosing
// function's facts and examined separately by goleak.

// FuncNode is one function or method declared in the analyzed packages.
type FuncNode struct {
	Fn   *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl
	// Calls lists the statically resolvable callees, in source order.
	Calls []CallSite
}

// CallSite is one static call edge.
type CallSite struct {
	Callee *types.Func
	Pos    token.Pos
}

// blockCause records why a function is considered blocking: the nearest
// operation (or call edge) responsible, plus a human-readable chain.
type blockCause struct {
	// desc is the chain description, e.g. "(*os.File).Sync" or
	// "(*Store).append → (*os.File).Sync".
	desc string
	pos  token.Pos
}

// CallGraph is the module-wide static call graph plus the derived
// per-function facts. Built once per Run call and read-only
// afterwards, so analyzers may consult it from concurrent goroutines.
type CallGraph struct {
	Nodes map[*types.Func]*FuncNode

	// blocking maps a function to the reason it may block the calling
	// goroutine: it directly performs a channel operation, select, sleep,
	// fsync or network I/O, or it (transitively) calls a function that
	// does.
	blocking map[*types.Func]*blockCause

	// loopsForever maps a function to the position of a `for {}` loop
	// with no exit: no break, no return, no channel receive, no select —
	// the static shape of a goroutine leak. Propagated through call
	// edges so `go s.run()` is judged by what run ultimately does.
	loopsForever map[*types.Func]token.Pos
}

// buildCallGraph constructs the graph and computes the fact store.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Nodes:        make(map[*types.Func]*FuncNode),
		blocking:     make(map[*types.Func]*blockCause),
		loopsForever: make(map[*types.Func]token.Pos),
	}
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Pkg: p, Decl: fd}
				inspectOwnCode(fd.Body, func(n ast.Node) {
					if call, ok := n.(*ast.CallExpr); ok {
						if callee := staticCallee(p, call); callee != nil {
							node.Calls = append(node.Calls, CallSite{Callee: callee, Pos: call.Pos()})
						}
					}
				})
				g.Nodes[fn] = node
			}
		}
	}
	g.computeBlocking()
	g.computeLoops()
	return g
}

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

// blockingStdlib is the curated set of standard-library calls treated as
// blocking the calling goroutine, keyed by types.Func.FullName. Fast
// in-memory work (os.File.Write hits the page cache) is deliberately
// absent; fsync, sleeps and network I/O are the latency cliffs the
// lockheld invariant is about.
var blockingStdlib = map[string]string{
	"time.Sleep":                        "time.Sleep",
	"net.Dial":                          "net.Dial",
	"net.DialTimeout":                   "net.DialTimeout",
	"net.Listen":                        "net.Listen",
	"net.ListenPacket":                  "net.ListenPacket",
	"net/http.ListenAndServe":           "http.ListenAndServe",
	"(*net/http.Server).ListenAndServe": "(*http.Server).ListenAndServe",
	"(*net/http.Client).Do":             "(*http.Client).Do",
	"net/http.Get":                      "http.Get",
	"net/http.Post":                     "http.Post",
	"(*os.File).Sync":                   "(*os.File).Sync (fsync)",
	"(*sync.WaitGroup).Wait":            "(*sync.WaitGroup).Wait",
	"(*sync.Cond).Wait":                 "(*sync.Cond).Wait",
	"(net.Conn).Read":                   "network read",
	"(net.Conn).Write":                  "network write",
	"(net.Listener).Accept":             "Accept",
	"(net.PacketConn).ReadFrom":         "network read",
	"(net.PacketConn).WriteTo":          "network write",
	"(*net.TCPConn).Read":               "network read",
	"(*net.TCPConn).Write":              "network write",
	"(*net.UDPConn).Read":               "network read",
	"(*net.UDPConn).Write":              "network write",
	"(*net.UDPConn).ReadFrom":           "network read",
	"(*net.UDPConn).WriteTo":            "network write",
	"(*net.TCPListener).Accept":         "Accept",
	"(*os/exec.Cmd).Run":                "(*exec.Cmd).Run",
	"(*os/exec.Cmd).Wait":               "(*exec.Cmd).Wait",
	"(*os/exec.Cmd).Output":             "(*exec.Cmd).Output",
	"(*os/exec.Cmd).CombinedOutput":     "(*exec.Cmd).CombinedOutput",
}

// directBlockOp reports the blocking operation n itself performs, if
// any: channel send/receive, select, range over a channel, or a call
// into the blocking stdlib surface.
func directBlockOp(p *Package, n ast.Node) (string, token.Pos, bool) {
	switch x := n.(type) {
	case *ast.SendStmt:
		return "channel send", x.Arrow, true
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "channel receive", x.OpPos, true
		}
	case *ast.SelectStmt:
		return "select", x.Select, true
	case *ast.RangeStmt:
		if t := p.Info.TypeOf(x.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "range over channel", x.For, true
			}
		}
	case *ast.CallExpr:
		if fn := staticCallee(p, x); fn != nil {
			if desc, ok := blockingStdlib[fn.FullName()]; ok {
				return desc, x.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// computeBlocking seeds each node with its direct blocking operations,
// then propagates through call edges to a fixpoint: a function that
// calls a blocking function blocks, with the cause chain recorded for
// the eventual finding message.
func (g *CallGraph) computeBlocking() {
	for fn, node := range g.Nodes {
		p := node.Pkg
		inspectOwnCode(node.Decl.Body, func(n ast.Node) {
			if g.blocking[fn] != nil {
				return
			}
			if desc, pos, ok := directBlockOp(p, n); ok {
				g.blocking[fn] = &blockCause{desc: desc, pos: pos}
			}
		})
	}
	for changed := true; changed; {
		changed = false
		for fn, node := range g.Nodes {
			if g.blocking[fn] != nil {
				continue
			}
			for _, cs := range node.Calls {
				cause := g.blocking[cs.Callee]
				if cause == nil {
					continue
				}
				g.blocking[fn] = &blockCause{
					desc: shortFuncName(cs.Callee) + " → " + cause.desc,
					pos:  cs.Pos,
				}
				changed = true
				break
			}
		}
	}
}

// BlockingCause returns why fn may block the calling goroutine, or nil.
func (g *CallGraph) BlockingCause(fn *types.Func) *blockCause {
	if fn == nil {
		return nil
	}
	return g.blocking[fn]
}

// computeLoops finds functions whose body contains an exit-less `for {}`
// and propagates the fact through call edges, so goleak can judge
// `go s.run()` by run's ultimate shape.
func (g *CallGraph) computeLoops() {
	for fn, node := range g.Nodes {
		if pos, ok := foreverLoop(node.Pkg, node.Decl.Body); ok {
			g.loopsForever[fn] = pos
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, node := range g.Nodes {
			if _, done := g.loopsForever[fn]; done {
				continue
			}
			// Only an unconditional call transmits the fact: a looping
			// callee reached under an if may never run. Statement-level
			// calls directly in the body's top level qualify.
			for _, stmt := range node.Decl.Body.List {
				es, ok := stmt.(*ast.ExprStmt)
				if !ok {
					continue
				}
				call, ok := es.X.(*ast.CallExpr)
				if !ok {
					continue
				}
				callee := staticCallee(node.Pkg, call)
				if callee == nil {
					continue
				}
				if _, loops := g.loopsForever[callee]; loops {
					g.loopsForever[fn] = call.Pos()
					changed = true
					break
				}
			}
		}
	}
}

// LoopsForever returns the position of fn's exit-less loop (possibly via
// an unconditional callee), or false.
func (g *CallGraph) LoopsForever(fn *types.Func) (token.Pos, bool) {
	if fn == nil {
		return token.NoPos, false
	}
	pos, ok := g.loopsForever[fn]
	return pos, ok
}

// foreverLoop scans a body (goroutine-launched literals excluded — their
// loops are their own) for a `for {}` with no exit path: no break
// targeting it, no return, no channel receive, no select, and no range
// over a channel anywhere inside. Any of those is a stop or completion
// path and clears the loop.
func foreverLoop(p *Package, body *ast.BlockStmt) (token.Pos, bool) {
	var found token.Pos
	ok := false
	inspectOwnCode(body, func(n ast.Node) {
		if ok {
			return
		}
		loop, isFor := n.(*ast.ForStmt)
		if !isFor || loop.Cond != nil {
			return
		}
		if !loopHasExit(p, loop) {
			found, ok = loop.For, true
		}
	})
	return found, ok
}

// loopHasExit reports whether an unconditional for-loop contains any
// construct that can stop it or park it on a signal: break/return/goto,
// a channel receive or send (a send on an unbuffered channel is a
// rendezvous — the other side disappearing is detectable via panic on
// close, and in practice pool-shaped code is driven by its consumer),
// select, or a range over a channel.
func loopHasExit(p *Package, loop *ast.ForStmt) bool {
	exit := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if exit {
			return false
		}
		switch x := n.(type) {
		case *ast.BranchStmt:
			if x.Tok == token.BREAK || x.Tok == token.GOTO {
				exit = true
			}
		case *ast.ReturnStmt:
			exit = true
		case *ast.SelectStmt:
			exit = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				exit = true
			}
		case *ast.SendStmt:
			exit = true
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					exit = true
				}
			}
		case *ast.CallExpr:
			if name := calleeName(x); name == "panic" || name == "Fatal" || name == "Fatalf" || name == "Exit" {
				exit = true
			}
		case *ast.FuncLit:
			return false // a nested literal's exits are not this loop's
		}
		return !exit
	})
	return exit
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
