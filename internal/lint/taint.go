package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism-taint extraction (sertaint's per-function half). Each
// function is reduced to a def-use edge graph over abstract nodes:
//
//	p<i>       the i-th parameter
//	ret        the merged result value
//	c<k>.a<j>  the j-th argument of the k-th call in the body
//	c<k>.r     the k-th call's result
//	s<i>       a nondeterminism source
//	v <n>:<l>  a local variable (name + declaration line)
//	chan <T>   a channel of module struct type T (shared module-wide)
//
// Sources are the places order nondeterminism enters a value:
// accumulation (op-assign or a self-referential assignment like
// x = append(x, k)) into a variable declared outside a map-range body, a
// select arm, or a go-launched literal — plus calls into time/rand that
// are not declared seams (an adjacent wallclock allow marks a site as
// deliberately seamed). The global phase stitches the per-function
// graphs together along call edges and reports any source that reaches
// a serialization sink.
//
// Precision choices, deliberately conservative in the quiet direction:
// sort.* calls sanitize their (plain-variable) arguments; map-index
// writes carry no taint (map insertion order is unobservable until a
// range, which is its own source); package-level variables and method
// receivers are not propagated through.

// TaintEdge is one def-use edge: From's taint flows into To.
type TaintEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// TaintCall is one statically resolved call, for cross-function
// stitching and sink detection.
type TaintCall struct {
	// Index is the call's node index (c<Index>.a<j> / c<Index>.r).
	Index  int    `json:"index"`
	Callee string `json:"callee"`
	Pos    Pos    `json:"pos"`
	// Sink describes a standard-library serialization sink, "" otherwise
	// (module sinks are resolved from the callee's //mantra:sink in the
	// global phase).
	Sink string `json:"sink,omitempty"`
	// DataFrom is the first argument index that is serialized data (1 for
	// fmt.Fprint-style sinks whose argument 0 is the writer).
	DataFrom int `json:"dataFrom,omitempty"`
}

// TaintSrc is one nondeterminism source.
type TaintSrc struct {
	Desc string `json:"desc"`
	Pos  Pos    `json:"pos"`
}

// TaintSum is one function's serialized taint graph.
type TaintSum struct {
	// Params is the signature's parameter count (receiver excluded), for
	// variadic clamping at call sites.
	Params  int         `json:"params,omitempty"`
	Edges   []TaintEdge `json:"edges,omitempty"`
	Calls   []TaintCall `json:"calls,omitempty"`
	Sources []TaintSrc  `json:"sources,omitempty"`
}

// taintCtx is one nondeterministic-order region of a body.
type taintCtx struct {
	// boundary decides "declared outside": a variable declared before
	// this node accumulates across the region's nondeterministic order.
	boundary ast.Node
	// body is the span writes must fall in.
	body ast.Node
	desc string
}

type taintExtract struct {
	p         *Package
	fd        *ast.FuncDecl
	sum       *TaintSum
	callIdx   map[*ast.CallExpr]int
	nextCall  int
	paramNode map[types.Object]string
	edgeSeen  map[TaintEdge]bool
	sanitized map[string]bool
	ctxs      []taintCtx
	// seamLines marks lines sanctioned by a wallclock allow (the allow
	// line and the line it covers below).
	seamLines map[string]map[int]bool
}

// taintSummary extracts one function's taint graph, or nil when the
// function has no internal flow at all.
func taintSummary(p *Package, fd *ast.FuncDecl, seamLines map[string]map[int]bool) *TaintSum {
	fn, ok := p.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	tx := &taintExtract{
		p:         p,
		fd:        fd,
		sum:       &TaintSum{Params: sig.Params().Len()},
		callIdx:   make(map[*ast.CallExpr]int),
		paramNode: make(map[types.Object]string),
		edgeSeen:  make(map[TaintEdge]bool),
		sanitized: make(map[string]bool),
		seamLines: seamLines,
	}
	i := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					tx.paramNode[obj] = fmt.Sprintf("p%d", i)
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	tx.collectCtxs()
	// Unlike the call-graph facts, the taint walk includes go-launched
	// literal bodies: a goroutine's writes land in the same variables.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			tx.handleAssign(x)
		case *ast.SendStmt:
			tx.handleSend(x)
		case *ast.RangeStmt:
			tx.handleRange(x)
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				tx.edges(tx.refs(res), "ret")
			}
		case *ast.CallExpr:
			tx.handleCall(x)
		}
		return true
	})
	// Named results flow to ret on any bare return.
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if n := tx.varNode(name); n != "" {
					tx.edge(n, "ret")
				}
			}
		}
	}
	tx.finish()
	if len(tx.sum.Edges) == 0 && len(tx.sum.Sources) == 0 {
		return nil
	}
	return tx.sum
}

// collectCtxs pre-collects the nondeterministic-order regions.
func (tx *taintExtract) collectCtxs() {
	ast.Inspect(tx.fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if isMapType(tx.p.Info.TypeOf(x.X)) && x.Body != nil {
				tx.ctxs = append(tx.ctxs, taintCtx{boundary: x, body: x.Body, desc: "value accumulated in map-iteration order"})
			}
		case *ast.SelectStmt:
			for _, clause := range x.Body.List {
				tx.ctxs = append(tx.ctxs, taintCtx{boundary: x, body: clause, desc: "value accumulated in select-arm arrival order"})
			}
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok && lit.Body != nil {
				tx.ctxs = append(tx.ctxs, taintCtx{boundary: lit, body: lit.Body, desc: "value accumulated in goroutine-completion order"})
			}
		}
		return true
	})
}

// ctxAt returns the innermost nondeterministic region containing pos.
func (tx *taintExtract) ctxAt(pos token.Pos) *taintCtx {
	var best *taintCtx
	for i := range tx.ctxs {
		c := &tx.ctxs[i]
		if c.body.Pos() <= pos && pos < c.body.End() {
			if best == nil || c.body.Pos() >= best.body.Pos() {
				best = c
			}
		}
	}
	return best
}

func (tx *taintExtract) edge(from, to string) {
	if from == "" || to == "" || from == to {
		return
	}
	e := TaintEdge{From: from, To: to}
	if tx.edgeSeen[e] {
		return
	}
	tx.edgeSeen[e] = true
	tx.sum.Edges = append(tx.sum.Edges, e)
}

func (tx *taintExtract) edges(from []string, to string) {
	for _, f := range from {
		tx.edge(f, to)
	}
}

// varNode maps an identifier to its abstract node: a parameter node, or
// a function-local variable node. Fields, package-level variables and
// non-variables map to "".
func (tx *taintExtract) varNode(id *ast.Ident) string {
	obj := tx.p.Info.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return ""
	}
	if n, isParam := tx.paramNode[obj]; isParam {
		return n
	}
	// Receivers and package-level state are out of scope (documented).
	if obj.Pos() < tx.fd.Body.Pos() || obj.Pos() >= tx.fd.Body.End() {
		return ""
	}
	return fmt.Sprintf("v %s:%d", v.Name(), tx.p.Fset.Position(obj.Pos()).Line)
}

func (tx *taintExtract) callIndex(call *ast.CallExpr) int {
	if k, ok := tx.callIdx[call]; ok {
		return k
	}
	k := tx.nextCall
	tx.nextCall++
	tx.callIdx[call] = k
	return k
}

// refs collects the abstract nodes an expression's value derives from.
// Calls contribute their result node without descending (argument flow
// goes through the callee's own graph); selectors collapse to their root
// variable (field granularity is not tracked).
func (tx *taintExtract) refs(e ast.Expr) []string {
	var out []string
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case nil:
		case *ast.Ident:
			if n := tx.varNode(x); n != "" {
				out = append(out, n)
			}
		case *ast.SelectorExpr:
			if root := rootIdent(x); root != nil {
				if n := tx.varNode(root); n != "" {
					out = append(out, n)
				}
				return
			}
			walk(x.X) // call-rooted selector: f().Field
		case *ast.CallExpr:
			out = append(out, fmt.Sprintf("c%d.r", tx.callIndex(x)))
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if cn := chanNode(tx.p.Info.TypeOf(x.X)); cn != "" {
					out = append(out, cn)
				}
				return
			}
			walk(x.X)
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.StarExpr:
			walk(x.X)
		case *ast.IndexExpr:
			walk(x.X)
			walk(x.Index)
		case *ast.SliceExpr:
			walk(x.X)
		case *ast.TypeAssertExpr:
			walk(x.X)
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					walk(kv.Value)
					continue
				}
				walk(elt)
			}
		case *ast.KeyValueExpr:
			walk(x.Value)
		}
	}
	walk(e)
	return out
}

func (tx *taintExtract) handleAssign(as *ast.AssignStmt) {
	shared := len(as.Rhs) == 1 && len(as.Lhs) > 1 // tuple: a, b := f()
	var sharedRefs []string
	if shared {
		sharedRefs = tx.refs(as.Rhs[0])
	}
	for i, lhs := range as.Lhs {
		root := rootIdent(lhs)
		target := ""
		if root != nil {
			target = tx.varNode(root)
		}
		if target == "" {
			continue
		}
		// A write through a map index is unordered storage: the taint
		// re-enters (as its own source) only when the map is ranged.
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapType(tx.p.Info.TypeOf(ix.X)) {
			continue
		}
		rhs := sharedRefs
		if !shared && i < len(as.Rhs) {
			rhs = tx.refs(as.Rhs[i])
		}
		tx.edges(rhs, target)
		// Source: accumulation into a variable that outlives a
		// nondeterministically ordered region.
		if ctx := tx.ctxAt(as.Pos()); ctx != nil &&
			tx.accumulating(as, i, root) && !declaredWithin(tx.p, root, ctx.boundary) {
			s := fmt.Sprintf("s%d", len(tx.sum.Sources))
			tx.sum.Sources = append(tx.sum.Sources, TaintSrc{Desc: ctx.desc, Pos: toPos(tx.p, as.Pos())})
			tx.edge(s, target)
		}
	}
}

// accumulating reports whether assignment slot i folds the previous
// value of its own target into the new one: an op-assign (+=, |=, ...),
// or a plain assignment whose RHS mentions the target variable
// (x = append(x, k), x = x + s). Overwrites and max-style reductions are
// order-independent often enough that flagging them would drown the
// signal.
func (tx *taintExtract) accumulating(as *ast.AssignStmt, i int, root *ast.Ident) bool {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return true
	}
	if i >= len(as.Rhs) {
		return false
	}
	obj := tx.p.Info.ObjectOf(root)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(as.Rhs[i], func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && tx.p.Info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func (tx *taintExtract) handleSend(s *ast.SendStmt) {
	if cn := chanNode(tx.p.Info.TypeOf(s.Chan)); cn != "" {
		tx.edges(tx.refs(s.Value), cn)
	}
}

func (tx *taintExtract) handleRange(rs *ast.RangeStmt) {
	var targets []string
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := v.(*ast.Ident); ok {
			if n := tx.varNode(id); n != "" {
				targets = append(targets, n)
			}
		}
	}
	srcRefs := tx.refs(rs.X)
	if cn := chanNode(tx.p.Info.TypeOf(rs.X)); cn != "" {
		srcRefs = append(srcRefs, cn)
	}
	for _, t := range targets {
		tx.edges(srcRefs, t)
	}
}

func (tx *taintExtract) handleCall(call *ast.CallExpr) {
	k := tx.callIndex(call)
	res := fmt.Sprintf("c%d.r", k)

	// Conversions pass their operand through.
	if tv, ok := tx.p.Info.Types[call.Fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			tx.edges(tx.refs(a), res)
		}
		return
	}
	callee := staticCallee(tx.p, call)
	if callee == nil {
		// Builtins (append, copy, ...) and dynamic calls: conservative
		// pass-through, arguments to result.
		for _, a := range call.Args {
			tx.edges(tx.refs(a), res)
		}
		return
	}
	full := callee.FullName()
	if callee.Pkg() != nil && callee.Pkg().Path() == "sort" {
		// Sorting imposes a deterministic order: the sorted variable's
		// onward flow is clean. Sorting a field (sort.Slice(out.Pairs))
		// sanitizes the root variable — coarse, but the module's
		// accumulate-then-sort pattern sorts every accumulated field
		// before the value moves on.
		for _, a := range call.Args {
			if id := rootIdent(a); id != nil {
				if n := tx.varNode(id); n != "" {
					tx.sanitized[n] = true
				}
			}
		}
		return
	}
	// Unseamed clock/rand readings are sources in their own right.
	if desc := clockRandSource(callee); desc != "" && !tx.seamed(call) {
		s := fmt.Sprintf("s%d", len(tx.sum.Sources))
		tx.sum.Sources = append(tx.sum.Sources, TaintSrc{Desc: desc, Pos: toPos(tx.p, call.Pos())})
		tx.edge(s, res)
	}
	tc := TaintCall{Index: k, Callee: full, Pos: toPos(tx.p, call.Pos())}
	tc.Sink, tc.DataFrom = stdlibSink(tx.p, call, full)
	tx.sum.Calls = append(tx.sum.Calls, tc)
	for j, a := range call.Args {
		tx.edges(tx.refs(a), fmt.Sprintf("c%d.a%d", k, j))
	}
}

// seamed reports whether the call site carries (or sits under) a
// wallclock allow — the module's convention for a declared, reviewed
// clock seam.
func (tx *taintExtract) seamed(call *ast.CallExpr) bool {
	pos := tx.p.Fset.Position(call.Pos())
	return tx.seamLines[pos.Filename][pos.Line]
}

// finish drops edges flowing out of sanitized variables.
func (tx *taintExtract) finish() {
	if len(tx.sanitized) == 0 {
		return
	}
	kept := tx.sum.Edges[:0]
	for _, e := range tx.sum.Edges {
		if !tx.sanitized[e.From] {
			kept = append(kept, e)
		}
	}
	tx.sum.Edges = kept
}

// chanNode renders the shared node of a channel whose element is a named
// struct (or pointer to one) — the payload shape worth tracking across
// goroutines. Channels of basic types are too promiscuous to share a
// node without smearing taint module-wide.
func chanNode(t types.Type) string {
	if t == nil {
		return ""
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return ""
	}
	elem := ch.Elem()
	if ptr, ok := elem.Underlying().(*types.Pointer); ok {
		elem = ptr.Elem()
	}
	full := typeFullName(elem)
	if full == "" {
		return ""
	}
	if _, isStruct := elem.Underlying().(*types.Struct); !isStruct {
		return ""
	}
	return "chan " + full
}

// clockRandSource classifies direct nondeterminism-producing stdlib
// calls: wall-clock readings and the global rand.
func clockRandSource(callee *types.Func) string {
	switch callee.FullName() {
	case "time.Now", "time.Since", "time.Until":
		return "unseamed wall-clock reading (" + callee.FullName() + ")"
	}
	if pkg := callee.Pkg(); pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2") {
		return "unseamed global-rand value (" + callee.FullName() + ")"
	}
	return ""
}

// stdlibSink classifies standard-library serialization sinks.
func stdlibSink(p *Package, call *ast.CallExpr, full string) (string, int) {
	switch full {
	case "encoding/json.Marshal", "encoding/json.MarshalIndent":
		return "json.Marshal", 0
	case "(*encoding/json.Encoder).Encode":
		return "(*json.Encoder).Encode", 0
	case "(*encoding/gob.Encoder).Encode":
		return "(*gob.Encoder).Encode", 0
	case "(net/http.ResponseWriter).Write":
		return "the HTTP response body", 0
	case "fmt.Fprintf", "fmt.Fprintln", "fmt.Fprint":
		if len(call.Args) > 0 && isResponseWriter(p.Info.TypeOf(call.Args[0])) {
			return "the HTTP response body (fmt.Fprint*)", 1
		}
	}
	return "", 0
}

func isResponseWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "ResponseWriter"
}

// seamAllowLines collects, per file, the lines sanctioned by a wallclock
// allow comment: the comment's own line and the line below it (the two
// positions an allow covers).
func seamAllowLines(p *Package) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 || fields[0] != "wallclock" {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = make(map[int]bool)
				}
				out[pos.Filename][pos.Line] = true
				out[pos.Filename][pos.Line+1] = true
			}
		}
	}
	return out
}

// typeFullName renders a (possibly pointer-to-)named type as
// "pkgpath.Name", "" for anything else.
func typeFullName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}
