package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the fact layer: everything the module-wide check needs
// from a package, extracted from its AST into a plain value keyed by
// names and positions, so the check joins packages without holding
// their syntax trees against each other.

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

func posOf(p Pos) token.Position {
	return token.Position{Filename: p.File, Line: p.Line, Column: p.Col}
}

// CallRef is one statically resolved call edge out of a function.
type CallRef struct {
	// Callee is the called function's FullName — the module-wide unique
	// key FuncSum.Name uses.
	Callee string `json:"callee"`
	Pos    Pos    `json:"pos"`
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

	Calls []CallRef `json:"calls,omitempty"`
	Locks []LockEv  `json:"locks,omitempty"`
}

// PkgSummary is one package's facts for the module-wide check.
type PkgSummary struct {
	RelPath string     `json:"relPath"`
	Funcs   []*FuncSum `json:"funcs"`
}

// Summarize extracts a package's facts from its AST. Function literals
// fold into their declaration, goroutine-launched literal bodies belong
// to the spawned goroutine and are excluded (inspectOwnCode).
func Summarize(p *Package) *PkgSummary {
	sum := &PkgSummary{RelPath: p.RelPath}
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
			summarizeBody(p, fs, fd.Body)
			sum.Funcs = append(sum.Funcs, fs)
		}
	}
	return sum
}

func toPos(p *Package, pos token.Pos) Pos {
	tp := p.Fset.Position(pos)
	return Pos{File: tp.Filename, Line: tp.Line, Col: tp.Column}
}

// summarizeBody fills a function's call and lock events. A deferred
// unlock is recorded as such (its section runs to the function end); a
// deferred call is otherwise not a lock event.
func summarizeBody(p *Package, fs *FuncSum, body *ast.BlockStmt) {
	deferredCalls := make(map[*ast.CallExpr]bool)
	inspectOwnCode(body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.DeferStmt:
			deferredCalls[x.Call] = true
			if recv, ok := lockCall(p, x.Call, unlockMethods); ok {
				fs.Locks = append(fs.Locks, LockEv{
					Class: lockClass(p, x.Call), Expr: recv,
					Pos: toPos(p, x.Call.Pos()), Unlock: true, Deferred: true,
				})
			}
		case *ast.CallExpr:
			if !deferredCalls[x] {
				if recv, ok := lockCall(p, x, lockMethods); ok {
					fs.Locks = append(fs.Locks, LockEv{Class: lockClass(p, x), Expr: recv, Pos: toPos(p, x.Pos())})
					return
				}
				if recv, ok := lockCall(p, x, unlockMethods); ok {
					fs.Locks = append(fs.Locks, LockEv{Class: lockClass(p, x), Expr: recv, Pos: toPos(p, x.Pos()), Unlock: true})
					return
				}
			}
			if callee := staticCallee(p, x); callee != nil {
				fs.Calls = append(fs.Calls, CallRef{Callee: callee.FullName(), Pos: toPos(p, x.Pos())})
			}
		}
	})
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
