package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Per-struct field-flow extraction: the facts codecsym compares across
// an encode/decode pair, and the field-access facts statecov's coverage
// check consumes. Both are extracted during Summarize.
//
// The extraction rules are deliberately syntactic and symmetric:
//
//   - An ENCODE event is the first read of a target-struct field path in
//     a call-argument position (`appendU32(b, uint32(e.Prefix.Addr))`,
//     `appendUvarint(b, uint64(len(r.Rec.Pairs.Upserted)))`). Reads in
//     conditions or plain expressions do not emit bytes and are ignored
//     — which also means a codec that branches on a field it never
//     writes (`if e.Local {...}`) must route the read through a helper
//     call to count.
//   - A DECODE event is the first write to a target-struct field path
//     whose right-hand side contains a call (`out.Seq = r.uvarint()`,
//     `e.Local = r.byte() == 1`, `out.Pairs = make(...)`). Writes of
//     constants don't consume bytes and are ignored.
//
// Comparing the two event sequences (with prefix folding — see
// foldAgainst) is what lets one side read a whole sub-struct through a
// helper while the other writes its leaves inline.

// FieldEv is one ordered field-flow event of a codec-marked function:
// the dot path of a target-struct field, relative to the struct value
// ("Rec.Pairs.Upserted", "Prefix.Addr").
type FieldEv struct {
	Path string `json:"path"`
	Pos  Pos    `json:"pos"`
}

// FieldDecl is one struct field in a StructSum.
type FieldDecl struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Pos  Pos    `json:"pos"`
	// StringMap marks string-keyed map fields — the per-target state
	// shape statecov's transfer-coverage check is about.
	StringMap bool `json:"stringMap,omitempty"`
}

// StructSum is one tracked struct: a codec shape pin and/or a transfer
// component's state, with its declared field list.
type StructSum struct {
	// Name is the full type name ("repro/internal/core/logger.Logger").
	Name   string      `json:"name"`
	Pos    Pos         `json:"pos"`
	Fields []FieldDecl `json:"fields"`
	// Codec is the //mantra:codec pin on the type declaration, if any.
	Codec *CodecMark `json:"codec,omitempty"`
}

// FieldUse records that a function reads or writes one field of a
// tracked struct (statecov's coverage unit).
type FieldUse struct {
	Type  string `json:"type"`
	Field string `json:"field"`
}

// fieldFlowEvents extracts a codec-marked function's ordered field
// events for its declared target type.
func fieldFlowEvents(p *Package, fd *ast.FuncDecl, mark *CodecMark) []FieldEv {
	if mark.TypeFull == "" {
		return nil
	}
	var evs []FieldEv
	seen := make(map[string]bool)
	emit := func(path string, pos Pos) {
		if path != "" && !seen[path] {
			seen[path] = true
			evs = append(evs, FieldEv{Path: path, Pos: pos})
		}
	}
	if mark.Role == "encode" {
		inspectOwnCode(fd.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			for _, arg := range call.Args {
				collectTargetPaths(p, arg, mark.TypeFull, emit)
			}
		})
		return evs
	}
	inspectOwnCode(fd.Body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || !anyContainsCall(as.Rhs) {
			return
		}
		for _, lhs := range as.Lhs {
			if path, pos, ok := targetPath(p, lhs, mark.TypeFull); ok {
				emit(path, pos)
			}
		}
	})
	return evs
}

// collectTargetPaths finds every outermost target-struct field path in
// an expression tree (descending past calls, conversions and operators,
// but not into a matched path's own prefix).
func collectTargetPaths(p *Package, e ast.Expr, typeFull string, emit func(string, Pos)) {
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if path, pos, ok := targetPath(p, sel, typeFull); ok && path != "" {
			emit(path, pos)
			return false // don't re-emit this path's prefixes
		}
		return true
	})
}

// targetPath renders e as a field path rooted at a value of the target
// type ("Rec.Pairs.Upserted" for r.Rec.Pairs.Upserted when r is the
// target struct). Index expressions are transparent (r.Items[i].X is
// Items.X); ok is false when e does not root at the target type.
func targetPath(p *Package, e ast.Expr, typeFull string) (string, Pos, bool) {
	var parts []string
	pos := toPos(p, e.Pos())
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj, ok := p.Info.ObjectOf(x).(*types.Var)
			if !ok || typeFullName(obj.Type()) != typeFull {
				return "", Pos{}, false
			}
			// Reverse the selector chain into source order.
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			return strings.Join(parts, "."), pos, true
		case *ast.SelectorExpr:
			parts = append(parts, x.Sel.Name)
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return "", Pos{}, false
		}
	}
}

func anyContainsCall(exprs []ast.Expr) bool {
	for _, e := range exprs {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.CallExpr); ok {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// fieldUses records which tracked-struct fields a function touches —
// selector accesses and composite-literal field writes both count, so a
// constructor-style import seam (`&Logger{targets: m}`) covers fields
// the same way a mutating one does.
func fieldUses(p *Package, fd *ast.FuncDecl, tracked map[string]bool) []FieldUse {
	if len(tracked) == 0 {
		return nil
	}
	seen := make(map[FieldUse]bool)
	add := func(typeName, field string) {
		if typeName != "" && tracked[typeName] {
			seen[FieldUse{Type: typeName, Field: field}] = true
		}
	}
	inspectOwnCode(fd.Body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if sel := p.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				add(typeFullName(sel.Recv()), x.Sel.Name)
			}
		case *ast.CompositeLit:
			full := typeFullName(p.Info.TypeOf(x))
			if full == "" {
				return
			}
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						add(full, key.Name)
					}
				}
			}
		}
	})
	if len(seen) == 0 {
		return nil
	}
	out := make([]FieldUse, 0, len(seen))
	for fu := range seen {
		out = append(out, fu)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].Field < out[j].Field
	})
	return out
}

// foldAgainst folds a's event paths to the coarsest granularity present
// in b, deduplicating to first occurrence: if a reads Prefix.Addr and
// Prefix.Len while b writes Prefix whole (through a helper), a folds to
// [Prefix]. Paths with no counterpart at any granularity pass through
// unchanged — the comparison then reports them as asymmetric.
func foldAgainst(a, b []FieldEv) []string {
	bSet := make(map[string]bool, len(b))
	for _, ev := range b {
		bSet[ev.Path] = true
	}
	var out []string
	seen := make(map[string]bool)
	for _, ev := range a {
		path := ev.Path
		if !bSet[path] {
			// Fold to the longest proper prefix b knows, if any.
			for q := path; ; {
				i := strings.LastIndex(q, ".")
				if i < 0 {
					break
				}
				q = q[:i]
				if bSet[q] {
					path = q
					break
				}
			}
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	return out
}
