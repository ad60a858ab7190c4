package seglog_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlySeglogWritesArchiveFiles holds the archive's on-disk invariant:
// every byte that reaches a WAL, checkpoint or mirror file goes through
// this package's CRC-framed writer, so the open-time scan can tell a
// torn tail from a valid record. No other non-test file under
// internal/core may import hash/crc32, open a file for writing
// (os.OpenFile, os.Create, os.WriteFile) or write to an *os.File. Each
// package is type-checked against os alone: a writable *os.File can
// only come from there, and the unresolved rest costs nothing here.
func TestOnlySeglogWritesArchiveFiles(t *testing.T) {
	fset := token.NewFileSet()
	src := importer.ForCompiler(fset, "source", nil)
	conf := types.Config{Importer: osOnly{src}, Error: func(error) {}}
	dirs, err := filepath.Glob(filepath.Join("..", "*"))
	if err != nil || len(dirs) < 2 {
		t.Fatalf("internal/core packages: %v, %v", dirs, err)
	}
	for _, dir := range dirs {
		if filepath.Base(dir) == "seglog" {
			continue
		}
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			var files []*ast.File
			for _, f := range pkg.Files {
				files = append(files, f)
			}
			info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
			conf.Check(dir, fset, files, info) // best-effort: only os resolves
			for _, f := range files {
				for _, imp := range f.Imports {
					if imp.Path.Value == `"hash/crc32"` {
						t.Errorf("%s imports hash/crc32: archive framing belongs to seglog", fset.Position(imp.Pos()))
					}
				}
			}
			for id, obj := range info.Uses {
				fn, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				switch name := fn.FullName(); {
				case name == "os.OpenFile", name == "os.Create", name == "os.WriteFile", strings.HasPrefix(name, "(*os.File).Write"):
					t.Errorf("%s uses %s: archive bytes must go through seglog's framed writer", fset.Position(id.Pos()), name)
				}
			}
		}
	}
}

// osOnly resolves the os package and refuses every other import.
type osOnly struct{ types.Importer }

func (o osOnly) Import(path string) (*types.Package, error) {
	if path != "os" {
		return nil, fs.ErrNotExist
	}
	return o.Importer.Import(path)
}
