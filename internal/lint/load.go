package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module loads and type-checks the packages of one Go module with no
// tooling beyond the standard library: module-internal imports are
// resolved by recursively loading the imported directory, everything else
// (the standard library) is type-checked from $GOROOT source by the
// "source" importer — so the linter works offline in a zero-dependency
// module, exactly like the build itself.
type Module struct {
	// Root is the module root directory (where go.mod lives).
	Root string
	// Path is the module path from go.mod ("repro").
	Path string
	Fset *token.FileSet

	std  types.ImporterFrom
	pkgs map[string]*Package // keyed by RelPath; nil entry marks in-progress
}

// NewModule prepares a loader rooted at the go.mod found in or above dir.
func NewModule(dir string) (*Module, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// Stdlib source type-checking must not attempt cgo preprocessing.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, errors.New("lint: source importer unavailable")
	}
	return &Module{
		Root: root,
		Path: modPath,
		Fset: fset,
		std:  std,
		pkgs: make(map[string]*Package),
	}, nil
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

// modulePath extracts the module path from a go.mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// packageDirs enumerates every package directory under the module root,
// skipping testdata, vendor, hidden and underscore directories. The
// result is sorted by RelPath ("" for the root package).
func (m *Module) packageDirs() ([]string, error) {
	var rels []string
	err := filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ok, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if ok {
			rel, err := filepath.Rel(m.Root, path)
			if err != nil {
				return err
			}
			if rel == "." {
				rel = ""
			}
			rels = append(rels, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(rels)
	return rels, nil
}

// LoadAll loads every package directory under the module root. The
// result is sorted by RelPath.
func (m *Module) LoadAll() ([]*Package, error) {
	rels, err := m.packageDirs()
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, rel := range rels {
		p, err := m.load(rel)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

// LoadDirAs parses and type-checks a single directory as if it were the
// module package at rel — the fixture entry point: a testdata package is
// loaded "as" the product package whose bug shape it reproduces.
func (m *Module) LoadDirAs(dir, rel string) (*Package, error) {
	return m.check(dir, rel)
}

// load returns the package at rel, loading it on first use. A nil map
// entry marks an in-progress load, turning import cycles into errors
// instead of hangs.
func (m *Module) load(rel string) (*Package, error) {
	if p, ok := m.pkgs[rel]; ok {
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle through %q", rel)
		}
		return p, nil
	}
	m.pkgs[rel] = nil
	p, err := m.check(filepath.Join(m.Root, rel), rel)
	if err != nil {
		delete(m.pkgs, rel)
		return nil, err
	}
	m.pkgs[rel] = p
	return p, nil
}

// check parses dir's non-test sources and type-checks them as rel.
// Files are registered under their module-root-relative names, so every
// position the linter reports is the same in any checkout.
func (m *Module) check(dir, rel string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if abs, err := filepath.Abs(path); err == nil {
			if r, err := filepath.Rel(m.Root, abs); err == nil && !strings.HasPrefix(r, "..") {
				path = filepath.ToSlash(r)
			}
		}
		f, err := parser.ParseFile(m.Fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("lint: %s: mixed packages %q and %q", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	p := &Package{RelPath: rel, Name: pkgName, Fset: m.Fset}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: &moduleImporter{m: m},
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	importPath := m.Path
	if rel != "" {
		importPath = m.Path + "/" + filepath.ToSlash(rel)
	}
	tpkg, err := conf.Check(importPath, m.Fset, files, p.Info)
	if err != nil && len(p.TypeErrors) == 0 {
		p.TypeErrors = append(p.TypeErrors, err)
	}
	p.Types = tpkg
	p.Files = files
	return p, nil
}

// moduleImporter resolves imports during type-checking: module-internal
// paths recurse into Module.load, all others go to the stdlib source
// importer.
type moduleImporter struct {
	m *Module
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	return mi.ImportFrom(path, mi.m.Root, 0)
}

func (mi *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == mi.m.Path || strings.HasPrefix(path, mi.m.Path+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, mi.m.Path), "/")
		p, err := mi.m.load(filepath.FromSlash(rel))
		if err != nil {
			return nil, err
		}
		if p.Types == nil {
			return nil, fmt.Errorf("lint: %q did not type-check", path)
		}
		return p.Types, nil
	}
	return mi.m.std.ImportFrom(path, dir, 0)
}
