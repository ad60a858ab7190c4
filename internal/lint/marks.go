package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// The module's one doc-comment marker (DESIGN.md §14), owned by the
// check it feeds:
//
//	//mantra:hotpath               a hot-path root for hotalloc, budget 0
//	//mantra:hotpath budget=3      a root allowed three allocation sites
//
// hotalloc walks the static call graph from the declared roots, flagging
// allocation sites in every function it can reach. The budget is the
// number of allocation sites the annotated function itself is allowed;
// functions reached transitively always have budget 0 unless they carry
// their own marker. Budgets are pinned at the current site count, so any
// *new* allocation on a hot path fails the build while the existing ones
// are grandfathered explicitly rather than silently.
//
// A marker that silently fails to register would quietly shrink the
// root set, so every defect in one is a hotalloc finding: a marker
// outside a function declaration's doc comment (dangling), a malformed
// argument, a second marker on one function.
const hotpathMarker = "//mantra:hotpath"

// markArgs returns what follows the marker in a comment; ok is false
// when the comment is not the marker at all (//mantra:hotpathy is not
// ours).
func markArgs(text, prefix string) (args string, ok bool) {
	args, ok = strings.CutPrefix(text, prefix)
	return args, ok && (args == "" || args[0] == ' ' || args[0] == '\t')
}

// hotBudget parses a hotpath marker's arguments: none, or budget=N.
func hotBudget(args string) (budget int, errMsg string) {
	fields := strings.Fields(args)
	if len(fields) == 0 {
		return 0, ""
	}
	if len(fields) > 1 {
		return 0, "marker takes at most one argument (budget=N)"
	}
	val, found := strings.CutPrefix(fields[0], "budget=")
	if !found {
		return 0, "unknown marker argument " + quote(fields[0]) + " (want budget=N)"
	}
	n, err := strconv.Atoi(val)
	if err != nil || n < 0 {
		return 0, "budget " + quote(val) + " is not a non-negative integer"
	}
	return n, ""
}

// funcHotMark returns the budget of the hot-path marker on a function's
// doc comment, and whether there is one. A malformed marker still
// registers (with a zero budget) so the defect report and the root set
// cannot disagree about whether a root exists.
func funcHotMark(fd *ast.FuncDecl) (budget int, ok bool) {
	if fd.Doc == nil {
		return 0, false
	}
	for _, c := range fd.Doc.List {
		if args, ok := markArgs(c.Text, hotpathMarker); ok {
			budget, _ := hotBudget(args)
			return budget, true
		}
	}
	return 0, false
}

// markDefects reports every malformed, duplicate or dangling marker in a
// package.
func markDefects(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		// Comment groups attached as some FuncDecl's Doc are the valid
		// anchor points; every marker elsewhere is dangling.
		attached := make(map[*ast.CommentGroup]bool)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			attached[fd.Doc] = true
			seen := false
			for _, c := range fd.Doc.List {
				args, ok := markArgs(c.Text, hotpathMarker)
				if !ok {
					continue
				}
				if _, msg := hotBudget(args); msg != "" {
					out = append(out, p.finding("hotalloc", c.Pos(), "bad %s on %s: %s", hotpathMarker, fd.Name.Name, msg))
				}
				if seen {
					out = append(out, p.finding("hotalloc", c.Pos(), "duplicate %s on %s; one marker per function", hotpathMarker, fd.Name.Name))
				}
				seen = true
			}
		}
		for _, cg := range file.Comments {
			if attached[cg] {
				continue
			}
			for _, c := range cg.List {
				if _, ok := markArgs(c.Text, hotpathMarker); ok {
					out = append(out, p.finding("hotalloc", c.Pos(),
						"dangling %s: the marker must be part of a function declaration's doc comment to register", hotpathMarker))
				}
			}
		}
	}
	return out
}
