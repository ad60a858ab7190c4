package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSummaryExtract drives the fact-summary extractor over arbitrary
// Go sources. The extractor feeds the module-wide lockorder check, so its
// contract is strict: it must never panic, and summarizing the same
// source twice — through two fully independent parse/type-check passes
// — must yield byte-identical JSON, or lockorder findings would differ
// from run to run.

// refuseImporter fails every import: fuzz inputs type-check best-effort
// with unresolved imports recorded as type errors, the same degraded
// mode the real loader falls into on broken packages.
type refuseImporter struct{}

func (refuseImporter) Import(path string) (*types.Package, error) {
	return nil, fmt.Errorf("fuzz: import %q refused", path)
}

// summarizeSource runs one full parse/check/summarize pass and returns
// the summary's JSON. ok is false when the input doesn't parse.
func summarizeSource(src []byte) (out []byte, ok bool) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, false
	}
	p := &Package{RelPath: "fuzz", Name: f.Name.Name, Fset: fset, Files: []*ast.File{f}}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: refuseImporter{},
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	tpkg, err := conf.Check("fuzz", fset, p.Files, p.Info)
	if err != nil && len(p.TypeErrors) == 0 {
		p.TypeErrors = append(p.TypeErrors, err)
	}
	p.Types = tpkg

	b, err := json.Marshal(Summarize(p))
	if err != nil {
		panic(fmt.Sprintf("summary not JSON-serializable: %v", err))
	}
	return b, true
}

func FuzzSummaryExtract(f *testing.F) {
	// Seed with this module's own sources: the lint package itself, its
	// fixtures, and the core packages — the delta logger, the table
	// scanner, the segment log, the cycle core, the engine, shard and
	// collect — whose mutexes, goroutines and cross-package calls are the
	// lock events and call edges the summaries record.
	var seeds []string
	for _, pat := range []string{
		"*.go",
		filepath.Join("testdata", "*", "*.go"),
		filepath.Join("..", "core", "logger", "*.go"),
		filepath.Join("..", "core", "tables", "*.go"),
		filepath.Join("..", "core", "seglog", "*.go"),
		filepath.Join("..", "core", "cycle", "*.go"),
		filepath.Join("..", "core", "engine", "*.go"),
		filepath.Join("..", "core", "shard", "*.go"),
		filepath.Join("..", "core", "collect", "*.go"),
	} {
		m, err := filepath.Glob(pat)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, m...)
	}
	if len(seeds) == 0 {
		f.Fatal("no seed sources found")
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}

	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		first, ok := summarizeSource(src)
		if !ok {
			return
		}
		second, _ := summarizeSource(src)
		if string(first) != string(second) {
			t.Fatalf("summary extraction is nondeterministic:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
