package mantra_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMutexInventory pins the module's mutexes: every mention of
// sync.Mutex or sync.RWMutex in a non-test file outside bench/ and
// testdata/, named by the declarations around it (package.Type.field for
// a struct field, package.var for a variable). No function holds two of
// them at once (DESIGN.md §14), so there is no lock order to keep. An
// inversion planted with a new mutex fails here on every run, where the
// inversion itself wedges a run only when its two nestings overlap; one
// between mutexes already listed is left to the deadline tests §14 names.
func TestMutexInventory(t *testing.T) {
	want := []string{
		"logger.Store.mu",
		"router.FaultyRouter.mu",
		"snmp.Agent.mu",
	}
	var got []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex") {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sync" {
					got = append(got, lockName(f, stack, sel.Sel.Name))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("the module's mutexes are\n\t%s\nwant\n\t%s\n"+
			"A new mutex is a new lock class: add it to DESIGN.md §14 and to this list, "+
			"and if any function can hold it with another, add a test that drives the nesting both ways at once under a deadline.",
			strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// lockName joins the names of the declarations enclosing a mention:
// functions, types, variables and fields (an embedded field by its
// type).
func lockName(f *ast.File, stack []ast.Node, typ string) string {
	parts := []string{f.Name.Name}
	for _, n := range stack {
		switch n := n.(type) {
		case *ast.FuncDecl:
			parts = append(parts, n.Name.Name)
		case *ast.TypeSpec:
			parts = append(parts, n.Name.Name)
		case *ast.ValueSpec:
			for _, id := range n.Names {
				parts = append(parts, id.Name)
			}
		case *ast.Field:
			if len(n.Names) == 0 {
				parts = append(parts, typ)
			}
			for _, id := range n.Names {
				parts = append(parts, id.Name)
			}
		}
	}
	return strings.Join(parts, ".")
}
