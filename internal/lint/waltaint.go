package lint

import (
	"go/ast"
)

// walTaintAnalyzer guards the archive's on-disk invariant: every byte
// that reaches a WAL or checkpoint file flows through the checksummed
// frame writer, so the open-time scan can tell a torn tail from a valid
// record. A direct file write that bypasses framing produces bytes the
// scanner must classify as corruption — silently shrinking the archive
// on the next restart.
//
// In internal/core/seglog, which owns the frame writer, and in its two
// callers internal/core/logger and internal/core/tsdb, which must not
// grow a file write of their own:
//
//   - (*os.File).WriteString, (*os.File).WriteAt and os.WriteFile are
//     always findings: frames are length-prefixed []byte, so these
//     shapes cannot be the frame writer;
//   - (*os.File).Write is a finding unless the enclosing function also
//     computes the frame checksum (calls crc32.Checksum/Update) — the
//     signature of the frame writer itself, where checksum and bytes
//     travel together.
//
// The one legitimate unframed write (the 8-byte segment magic) carries
// a reasoned allow comment; anything new is a finding first.
var walTaintAnalyzer = &Analyzer{
	Name: "waltaint",
	Doc:  "direct file write on WAL/checkpoint paths bypassing the checksummed frame writer",
	Run:  runWalTaint,
}

var rawWriteMethods = map[string]string{
	"(*os.File).Write":       "(*os.File).Write",
	"(*os.File).WriteString": "(*os.File).WriteString",
	"(*os.File).WriteAt":     "(*os.File).WriteAt",
}

func runWalTaint(a *Analysis, p *Package) []Finding {
	switch p.RelPath {
	case "internal/core/seglog", "internal/core/logger", "internal/core/tsdb":
	default:
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(p, call)
			if fn == nil {
				return true
			}
			full := fn.FullName()
			if full == "os.WriteFile" {
				out = append(out, p.finding("waltaint", call.Pos(),
					"os.WriteFile bypasses the checksummed frame writer; archive bytes must be CRC-framed"))
				return true
			}
			name, raw := rawWriteMethods[full]
			if !raw {
				return true
			}
			if full == "(*os.File).Write" && checksumsInFunc(p, file, call) {
				return true // the frame writer itself: checksum and bytes travel together
			}
			out = append(out, p.finding("waltaint", call.Pos(),
				"direct %s bypasses the checksummed frame writer; archive bytes must be CRC-framed", name))
			return true
		})
	}
	return out
}

// checksumsInFunc reports whether the function enclosing call also
// computes a CRC over a payload — the frame-writer signature.
func checksumsInFunc(p *Package, file *ast.File, call *ast.CallExpr) bool {
	body := enclosingFuncBody(file, call.Pos())
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := staticCallee(p, c); fn != nil {
			switch fn.FullName() {
			case "hash/crc32.Checksum", "hash/crc32.Update", "hash/crc32.ChecksumIEEE":
				found = true
			}
		}
		return !found
	})
	return found
}
