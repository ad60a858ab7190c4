package lint

import (
	"go/ast"
	"strings"
)

// walErrPkgs are the crash-safety surface: the segment log every durable
// byte goes through (the tsdb mirror's included), the WAL/checkpoint
// store on it, the cycle core whose Commit appends to it, the shard
// supervisor, which writes handoff gap markers to a worker's store
// directly, and the monitor's archive layer on top. The PR 2 contract is
// that a write-path error is either handled or recorded (degrade to
// in-memory-only, surface through ArchiveStatus) — never dropped, because
// a silently failed append is indistinguishable from a durable one until
// the crash that needed it.
var walErrPkgs = map[string]bool{
	"":                     true, // module root: archive.go, the monitor's archive layer
	"internal/core/seglog": true,
	"internal/core/logger": true,
	"internal/core/cycle":  true,
	"internal/core/shard":  true,
}

// walErrAnalyzer flags discarded error returns from write-path calls —
// Write/Sync/Close/Flush/Truncate/Remove/Rename/Append/Checkpoint/... —
// in the WAL, checkpoint and archive packages, whether the discard is
// implicit (a bare call statement, including go/defer) or explicit
// (assignment to _). Deliberate best-effort sites state their case with
// an allow comment.
var walErrAnalyzer = &Analyzer{
	Name: "walerr",
	Doc:  "discarded error returns on WAL/archive/checkpoint write paths",
	Run:  runWalErr,
}

// writeVerbs match callee names case-insensitively by prefix: Sync,
// WriteFile, WriteCheckpoint, AppendDelta, Close, ...
var writeVerbs = []string{
	"write", "sync", "close", "flush", "truncate", "remove", "rename",
	"append", "checkpoint", "rotate", "encode", "save", "mkdir", "create",
}

func nameHasWriteVerb(name string) bool {
	l := strings.ToLower(name)
	for _, v := range writeVerbs {
		if strings.HasPrefix(l, v) {
			return true
		}
	}
	return false
}

func runWalErr(_ *Analysis, p *Package) []Finding {
	if !walErrPkgs[p.RelPath] {
		return nil
	}
	var out []Finding
	report := func(call *ast.CallExpr, how string) {
		name := calleeName(call)
		if name == "" || !nameHasWriteVerb(name) || !lastResultIsError(p, call) {
			return
		}
		out = append(out, p.finding("walerr", call.Pos(),
			"%s returns an error that is %s; handle it or record it (crash-safety contract)", name, how))
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					report(call, "silently dropped")
				}
			case *ast.GoStmt:
				report(stmt.Call, "silently dropped (go statement)")
			case *ast.DeferStmt:
				report(stmt.Call, "silently dropped (deferred)")
			case *ast.AssignStmt:
				// The error position is the last result; flag when that
				// lands on the blank identifier.
				if len(stmt.Rhs) != 1 {
					return true
				}
				call, ok := stmt.Rhs[0].(*ast.CallExpr)
				if !ok || len(stmt.Lhs) == 0 {
					return true
				}
				if id, ok := stmt.Lhs[len(stmt.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
					report(call, "discarded with _")
				}
			}
			return true
		})
	}
	return out
}
