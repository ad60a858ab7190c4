package lint

import (
	"go/token"
	"sort"
	"strings"
)

// allowPrefix introduces a suppression comment:
//
//	//mantralint:allow <check> <reason>
//
// An allow comment silences findings of exactly the named check on its
// own line; a standalone allow comment placed on its own line silences
// the line below it. Nothing wider: suppressions are per-line and
// per-check by design, so a justified exception can never blanket-hide a
// fresh violation nearby.
const allowPrefix = "//mantralint:allow"

// allowKey identifies one suppression: file, line, check.
type allowKey struct {
	file  string
	line  int
	check string
}

// allowEntry is one registered suppression plus its usage record: an
// allow that suppresses nothing by the end of a run has gone stale.
type allowEntry struct {
	pos  token.Position
	used bool
}

type allowSet map[allowKey]*allowEntry

// suppresses reports whether f is covered by an allow comment on its line
// or the line directly above, marking the covering allow as used so
// stale ones can be reported afterwards.
func (s allowSet) suppresses(f Finding) bool {
	hit := false
	for _, line := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		if e := s[allowKey{f.Pos.Filename, line, f.Check}]; e != nil {
			e.used = true
			hit = true
		}
	}
	return hit
}

// stale reports the allows that suppressed nothing, restricted to checks
// that actually ran — an allow for a deselected check is unjudgeable,
// not stale. The implicit checks ("allow", "allowstale") are always
// judged: they run whenever the framework does. A stale report is itself
// suppressible (//mantralint:allow allowstale <reason>) for lines that
// trigger only under build tags or platforms the linter cannot see;
// those meta-allows are judged in a second pass, after the reports they
// may have just consumed.
func (s allowSet) stale(ran map[string]bool) []Finding {
	var keys, metaKeys []allowKey
	for k, e := range s {
		if e.used || (!ran[k.check] && k.check != "allow" && k.check != "allowstale") {
			continue
		}
		if k.check == "allowstale" {
			metaKeys = append(metaKeys, k)
			continue
		}
		keys = append(keys, k)
	}
	var out []Finding
	for _, pass := range [][]allowKey{keys, metaKeys} {
		// Map order must not leak into the finding list (our own mapiter
		// lesson); the caller sorts globally, but suppression marking
		// below must happen in a deterministic order too.
		sort.Slice(pass, func(i, j int) bool {
			a, b := pass[i], pass[j]
			if a.file != b.file {
				return a.file < b.file
			}
			if a.line != b.line {
				return a.line < b.line
			}
			return a.check < b.check
		})
		for _, k := range pass {
			if s[k].used {
				continue // consumed by a stale report emitted this pass
			}
			f := Finding{Pos: s[k].pos, Check: "allowstale",
				Message: "allow for " + quote(k.check) + " suppresses nothing on its line; the violation it justified is gone — delete the comment"}
			if !s.suppresses(f) {
				out = append(out, f)
			}
		}
	}
	return out
}

// collectAllows scans a package's comments for allow directives. Each
// well-formed directive registers a suppression in allows; a directive
// naming an unknown check or missing its reason is itself reported —
// the validity set is every registered check plus the implicit ones,
// independent of which checks run, so a suppression for a deselected
// check does not suddenly become a defect.
func collectAllows(p *Package, validChecks map[string]bool, allows allowSet) []Finding {
	var defects []Finding
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					// e.g. //mantralint:allowed — not ours.
					continue
				}
				fields := strings.Fields(rest)
				pos := p.Fset.Position(c.Pos())
				if len(fields) == 0 {
					defects = append(defects, Finding{Pos: pos, Check: "allow",
						Message: "allow comment names no check (want //mantralint:allow <check> <reason>)"})
					continue
				}
				check := fields[0]
				if !validChecks[check] {
					defects = append(defects, Finding{Pos: pos, Check: "allow",
						Message: "allow comment names unknown check " + quote(check)})
					continue
				}
				if len(fields) < 2 {
					defects = append(defects, Finding{Pos: pos, Check: "allow",
						Message: "allow comment for " + quote(check) + " has no reason; justify the suppression"})
					continue
				}
				allows[allowKey{pos.Filename, pos.Line, check}] = &allowEntry{pos: pos}
			}
		}
	}
	return defects
}

func quote(s string) string { return `"` + s + `"` }
