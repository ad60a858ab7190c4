package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the fact layer: everything the module-wide analyzers
// (global.go) need from a package, extracted from its AST into a plain
// value keyed by names and positions, so the global phase joins
// packages without holding their syntax trees against each other.

// Pos is a serializable source position. All events of one function live
// in one file, so (Line, Column) ordering within a FuncSum is total.
type Pos struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func (a Pos) before(b Pos) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

// CallRef is one statically resolved call edge out of a function.
type CallRef struct {
	// Callee is the called function's FullName — the module-wide unique
	// key FuncSum.Name uses.
	Callee string `json:"callee"`
	Pos    Pos    `json:"pos"`
}

// AllocSite is one allocation the hotalloc analyzer would flag if the
// containing function turns out to be on a hot path.
type AllocSite struct {
	// Desc is the finding phrase ("composite literal allocated per loop
	// iteration", "fmt.Sprintf call", ...).
	Desc string `json:"desc"`
	Pos  Pos    `json:"pos"`
}

// LockEv is one (un)lock call, in source order, for lockorder's
// section replay.
type LockEv struct {
	// Class is the position-independent lock identity: owner type plus
	// field for struct mutexes, package-qualified name for globals.
	Class string `json:"class"`
	// Expr is the rendered receiver expression ("s.mu"), used to match
	// unlocks to locks and to tell instances apart in messages.
	Expr     string `json:"expr"`
	Pos      Pos    `json:"pos"`
	Unlock   bool   `json:"unlock,omitempty"`
	Deferred bool   `json:"deferred,omitempty"`
}

// FuncSum is one function's facts.
type FuncSum struct {
	// Name is types.Func.FullName — unique across the module.
	Name string `json:"name"`
	// Short is the display rendering ("(*Logger).Append").
	Short string `json:"short"`
	// End is the position of the function body's closing brace; sections
	// with no (or a deferred) unlock run to here.
	End Pos `json:"end"`

	Hot       bool `json:"hot,omitempty"`
	HotBudget int  `json:"hotBudget,omitempty"`

	Calls  []CallRef   `json:"calls,omitempty"`
	Allocs []AllocSite `json:"allocs,omitempty"`
	Locks  []LockEv    `json:"locks,omitempty"`

	// Sink marks a //mantra:sink serialization function, and Taint is
	// the function's determinism-taint graph (DESIGN.md §15).
	Sink  bool      `json:"sink,omitempty"`
	Taint *TaintSum `json:"taint,omitempty"`
}

// PkgSummary is one package's facts for the global phase.
type PkgSummary struct {
	RelPath string     `json:"relPath"`
	Funcs   []*FuncSum `json:"funcs"`
	// Defects are marker defects (dangling, malformed or duplicate
	// //mantra:hotpath and //mantra:sink comments), pre-rendered as
	// findings.
	Defects []Finding `json:"markDefects,omitempty"`
}

// Summarize extracts a package's global-phase facts from its AST. The
// walk mirrors buildCallGraph's conventions: function literals fold into
// their declaration, goroutine-launched literal bodies belong to the
// spawned goroutine and are excluded.
func Summarize(p *Package) *PkgSummary {
	sum := &PkgSummary{RelPath: p.RelPath, Defects: markDefects(p)}
	seamLines := seamAllowLines(p)
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
			fs := &FuncSum{
				Name:  fn.FullName(),
				Short: shortFuncName(fn),
				End:   toPos(p, fd.Body.End()),
			}
			fs.HotBudget, fs.Hot = funcHotMark(fd)
			fs.Sink = funcSink(fd)
			fs.Taint = taintSummary(p, fd, seamLines)
			summarizeBody(p, fd, fs)
			sum.Funcs = append(sum.Funcs, fs)
		}
	}
	return sum
}

func toPos(p *Package, pos token.Pos) Pos {
	tp := p.Fset.Position(pos)
	return Pos{File: tp.Filename, Line: tp.Line, Col: tp.Column}
}

// summarizeBody fills a function's call, allocation and lock events.
func summarizeBody(p *Package, fd *ast.FuncDecl, fs *FuncSum) {
	// loops collects the *bodies* of for/range statements: allocation
	// kinds that are amortized or one-shot at top level (append, make,
	// composite literals) only count as hot allocation sites per loop
	// iteration. Only the body re-executes — a range operand or loop
	// initializer evaluates once and must not count.
	var loops []ast.Node
	inLoop := func(pos token.Pos) bool {
		for _, l := range loops {
			if l.Pos() <= pos && pos < l.End() {
				return true
			}
		}
		return false
	}
	deferredCalls := make(map[*ast.CallExpr]bool)
	inspectOwnCode(fd.Body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.ForStmt:
			if x.Body != nil {
				loops = append(loops, x.Body)
			}
		case *ast.RangeStmt:
			if x.Body != nil {
				loops = append(loops, x.Body)
			}
		case *ast.DeferStmt:
			deferredCalls[x.Call] = true
			if recv, ok := lockCall(p, x.Call, unlockMethods); ok {
				fs.Locks = append(fs.Locks, LockEv{
					Class: lockClass(p, x.Call), Expr: recv,
					Pos: toPos(p, x.Call.Pos()), Unlock: true, Deferred: true,
				})
			}
		case *ast.CompositeLit:
			if inLoop(x.Pos()) {
				fs.Allocs = append(fs.Allocs, AllocSite{
					Desc: "composite literal allocated per loop iteration", Pos: toPos(p, x.Pos())})
			}
		case *ast.FuncLit:
			if capt := capturesFree(p, fd, x); capt != "" {
				fs.Allocs = append(fs.Allocs, AllocSite{
					Desc: "closure captures " + capt + " and allocates when it escapes", Pos: toPos(p, x.Pos())})
			}
		case *ast.CallExpr:
			summarizeCall(p, fd, fs, x, deferredCalls, inLoop)
		}
	})
}

// summarizeCall classifies one call expression: lock event, static call
// edge, allocating builtin, fmt call, or string conversion.
func summarizeCall(p *Package, fd *ast.FuncDecl, fs *FuncSum, call *ast.CallExpr, deferredCalls map[*ast.CallExpr]bool, inLoop func(token.Pos) bool) {
	// Type conversions: string([]byte) and []byte(string) copy.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := p.Info.TypeOf(call.Fun), p.Info.TypeOf(call.Args[0])
		if isStringBytesConv(to, from) {
			fs.Allocs = append(fs.Allocs, AllocSite{
				Desc: "conversion " + types.ExprString(call.Fun) + "(...) copies its operand", Pos: toPos(p, call.Pos())})
		}
		return
	}

	if !deferredCalls[call] {
		if recv, ok := lockCall(p, call, lockMethods); ok {
			fs.Locks = append(fs.Locks, LockEv{Class: lockClass(p, call), Expr: recv, Pos: toPos(p, call.Pos())})
			return
		}
		if recv, ok := lockCall(p, call, unlockMethods); ok {
			fs.Locks = append(fs.Locks, LockEv{Class: lockClass(p, call), Expr: recv, Pos: toPos(p, call.Pos()), Unlock: true})
			return
		}
	}

	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fn.Name {
		case "append":
			if b, ok := p.Info.Uses[fn].(*types.Builtin); ok && b.Name() == "append" && inLoop(call.Pos()) {
				fs.Allocs = append(fs.Allocs, AllocSite{Desc: "append growth inside a loop", Pos: toPos(p, call.Pos())})
				return
			}
		case "make", "new":
			if _, ok := p.Info.Uses[fn].(*types.Builtin); ok && inLoop(call.Pos()) {
				fs.Allocs = append(fs.Allocs, AllocSite{Desc: fn.Name + " inside a loop", Pos: toPos(p, call.Pos())})
				return
			}
		}
	case *ast.SelectorExpr:
		if pkgPath, name, ok := pkgFuncRef(p, fn); ok && pkgPath == "fmt" {
			fs.Allocs = append(fs.Allocs, AllocSite{Desc: "fmt." + name + " call (formats through interfaces, allocates)", Pos: toPos(p, call.Pos())})
			// fmt also boxes its operands, but one site per call is
			// enough signal — skip the per-argument boxing scan below.
			return
		}
	}

	if callee := staticCallee(p, call); callee != nil {
		fs.Calls = append(fs.Calls, CallRef{Callee: callee.FullName(), Pos: toPos(p, call.Pos())})
		// Interface boxing at the call boundary: a concrete non-pointer
		// value passed to an interface parameter allocates per call; only
		// flagged in loops to keep one-shot setup paths quiet.
		if inLoop(call.Pos()) {
			fs.Allocs = append(fs.Allocs, boxingSites(p, call, callee)...)
		}
	}
}

// isStringBytesConv reports string<->[]byte (or []rune) conversions.
func isStringBytesConv(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(to) && isByteSlice(from)) || (isByteSlice(to) && isStr(from))
}

// boxingSites reports call arguments that box a concrete value into an
// interface parameter. Pointer-shaped values (pointers, maps, channels,
// funcs) fit the interface data word without allocating and are skipped,
// as are untyped nils and values that are already interfaces.
func boxingSites(p *Package, call *ast.CallExpr, callee *types.Func) []AllocSite {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []AllocSite
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := p.Info.TypeOf(arg)
		if at == nil || !boxAllocates(at) {
			continue
		}
		out = append(out, AllocSite{
			Desc: "argument boxed into interface parameter of " + callee.Name() + " per loop iteration",
			Pos:  toPos(p, arg.Pos())})
	}
	return out
}

// boxAllocates reports whether putting a value of type t into an
// interface heap-allocates: anything that is not already an interface
// and not pointer-shaped.
func boxAllocates(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Slice:
		// Slices are three words — they do allocate when boxed — but
		// they mostly reach interfaces via fmt, which is flagged at the
		// call; treating them here too would double-report.
		return false
	case *types.Basic:
		return u.Kind() != types.UntypedNil
	}
	return true
}

// capturesFree returns a rendering of the first free variable a literal
// captures (empty when it captures nothing — a capture-free literal can
// be allocated once by the compiler).
func capturesFree(p *Package, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		if obj.Pos() >= fd.Pos() && obj.Pos() < fd.End() &&
			!(obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()) {
			found = obj.Name()
		}
		return true
	})
	return found
}

// lockClass derives the position-independent identity of the mutex a
// Lock/Unlock call operates on. For a struct field (`s.mu.Lock()`) the
// class is the owning named type plus the field path; for a
// package-level variable it is the package-qualified name; for a local
// it is the enclosing scope's rendering. Distinct instances of one
// class share an identity — lock *ordering* is a property of the code's
// type structure, not of individual values.
func lockClass(p *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return types.ExprString(call.Fun)
	}
	mutex := ast.Unparen(sel.X) // the expression the (Un)lock is called on

	// Field path case: owner.field[.field...]. Walk to the innermost
	// selector whose X has a named (or pointer-to-named) type.
	if fieldSel, ok := mutex.(*ast.SelectorExpr); ok {
		if ownerT := namedTypeOf(p, fieldSel.X); ownerT != "" {
			return ownerT + "." + fieldSel.Sel.Name
		}
		return types.ExprString(mutex)
	}
	if id, ok := mutex.(*ast.Ident); ok {
		obj := p.Info.ObjectOf(id)
		if obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name() // package-level mutex var
			}
			// Embedded mutex (`s.Lock()` resolves sel.X to the receiver) or
			// a local/receiver variable: key on its named type when it has
			// one, else on the declaring package + name.
			if t := namedTypeOf(p, id); t != "" {
				return t + ".Mutex"
			}
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return types.ExprString(mutex)
}

// namedTypeOf renders e's named type (pointers dereferenced), or "".
func namedTypeOf(p *Package, e ast.Expr) string {
	t := p.Info.TypeOf(e)
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return obj.Name()
	}
	// A plain sync.Mutex receiver (the mutex value itself) is not named.
	return ""
}
