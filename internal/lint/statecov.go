package lint

import (
	"fmt"
	"sort"
)

// stateCovAnalyzer enforces the state-transfer coverage contract: every
// per-target stateful component (declared by //mantra:statetransfer
// component=<name> seam=<export|import|remove> on its transfer methods)
// must be wired into both recovery paths — the checkpoint Export/Import
// roots and the shard handoff export/import/remove path (declared by
// //mantra:statetransfer root=<flavor>). A component whose seam exists
// but is no longer called from a root — the classic "added a stateful
// field, forgot the handoff" drift — fails the build instead of
// silently losing state on the next failover.
//
// On top of seam reachability, statecov checks field coverage: for a
// component whose seams hang off one receiver type, every string-keyed
// map field of that type (the per-target state shape) must be touched
// somewhere in both the export seams' and the import seams' call
// closures. A new per-target map that neither seam serializes is
// reported at the field's declaration.
//
// The analysis is module-wide and runs over the per-package fact
// summaries.
var stateCovAnalyzer = &Analyzer{
	Name: "statecov",
	Doc:  "stateful component seam unreachable from the checkpoint or shard-handoff roots, or per-target state a transfer seam never touches",
}

// transferRequired maps a seam direction to the root flavors it must be
// reachable from.
var transferRequired = map[string][]string{
	"export": {"checkpoint-export", "handoff-export"},
	"import": {"checkpoint-import", "handoff-import"},
	"remove": {"handoff-remove"},
}

var seamDirections = []string{"export", "import", "remove"}

type transferComponent struct {
	seams map[string][]*FuncSum // direction → seam functions
	recvs map[string]bool       // receiver full type names
}

func stateCovFindings(idx *sumIndex, add func(Finding)) {
	rootsByFlavor := make(map[string][]string)
	comps := make(map[string]*transferComponent)
	for _, name := range idx.names {
		f := idx.funcs[name]
		t := f.Transfer
		if t == nil {
			continue
		}
		if t.Root != "" {
			rootsByFlavor[t.Root] = append(rootsByFlavor[t.Root], name)
			continue
		}
		if t.Component == "" || transferRequired[t.Seam] == nil {
			continue // defective marker, already reported at summary time
		}
		c := comps[t.Component]
		if c == nil {
			c = &transferComponent{seams: make(map[string][]*FuncSum), recvs: make(map[string]bool)}
			comps[t.Component] = c
		}
		c.seams[t.Seam] = append(c.seams[t.Seam], f)
		if t.Recv != "" {
			c.recvs[t.Recv] = true
		}
	}
	if len(comps) == 0 {
		return
	}

	reach := make(map[string]map[string]bool, len(transferRootFlavors))
	anyReach := make(map[string]bool)
	for flavor := range transferRootFlavors {
		reach[flavor] = reachableFuncs(idx, rootsByFlavor[flavor])
		for name := range reach[flavor] {
			anyReach[name] = true
		}
	}

	emit := func(pos Pos, format string, args ...any) {
		add(Finding{Pos: posOf(pos), Check: "statecov",
			Message: fmt.Sprintf(format, args...)})
	}

	names := make([]string, 0, len(comps))
	for name := range comps {
		names = append(names, name)
	}
	sort.Strings(names)
	missingRootReported := make(map[string]bool)
	for _, name := range names {
		c := comps[name]
		anchor := componentAnchor(c)

		if len(c.recvs) > 1 {
			var recvs []string
			for r := range c.recvs {
				recvs = append(recvs, r)
			}
			sort.Strings(recvs)
			emit(anchor.Transfer.Pos,
				"component %s seams span multiple receiver types (%v); declare one component per stateful type", quote(name), recvs)
		}
		for _, dir := range []string{"export", "import"} {
			if len(c.seams[dir]) == 0 {
				emit(anchor.Transfer.Pos,
					"component %s declares no %s seam; state that cannot round-trip is lost on recovery", quote(name), dir)
			}
		}

		for _, dir := range seamDirections {
			seams := c.seams[dir]
			if len(seams) == 0 {
				continue
			}
			for _, flavor := range transferRequired[dir] {
				if len(rootsByFlavor[flavor]) == 0 {
					if !missingRootReported[flavor] {
						missingRootReported[flavor] = true
						emit(anchor.Transfer.Pos,
							"no //mantra:statetransfer root=%s declared anywhere in the module; statecov cannot verify the %s path", flavor, flavor)
					}
					continue
				}
				covered := false
				for _, s := range seams {
					if reach[flavor][s.Name] {
						covered = true
						break
					}
				}
				if !covered {
					emit(seams[0].Transfer.Pos,
						"component %s: no %s seam is reachable from the %s root; the component is silently dropped from that transfer path", quote(name), dir, flavor)
				}
			}
			for _, s := range seams {
				if !anyReach[s.Name] {
					emit(s.Transfer.Pos,
						"seam %s of component %s is reachable from no transfer root; dead transfer code, or a root is missing the call", s.Short, quote(name))
				}
			}
		}

		stateCovFields(idx, name, c, emit)
	}
}

// stateCovFields checks per-target field coverage for single-receiver
// components: every string-keyed map field of the receiver type must be
// touched in both the export and the import seam closures.
func stateCovFields(idx *sumIndex, name string, c *transferComponent, emit func(Pos, string, ...any)) {
	if len(c.recvs) != 1 {
		return
	}
	var recv string
	for r := range c.recvs {
		recv = r
	}
	st := idx.structs[recv]
	if st == nil {
		return
	}
	touched := func(dir string) map[string]bool {
		var roots []string
		for _, s := range c.seams[dir] {
			roots = append(roots, s.Name)
		}
		out := make(map[string]bool)
		for fn := range reachableFuncs(idx, roots) {
			for _, fu := range idx.funcs[fn].Fields {
				if fu.Type == recv {
					out[fu.Field] = true
				}
			}
		}
		return out
	}
	exported, imported := touched("export"), touched("import")
	for _, field := range st.Fields {
		if !field.StringMap {
			continue
		}
		for _, side := range []struct {
			dir string
			set map[string]bool
		}{{"export", exported}, {"import", imported}} {
			if len(c.seams[side.dir]) == 0 || side.set[field.Name] {
				continue
			}
			emit(field.Pos,
				"per-target field %s.%s is never touched by component %s's %s seams; new state silently misses %s on transfer",
				shortClass(recv), field.Name, quote(name), side.dir, side.dir)
		}
	}
}

// componentAnchor picks the deterministic finding anchor for
// component-level defects: the first seam in direction order, ties by
// function name.
func componentAnchor(c *transferComponent) *FuncSum {
	for _, dir := range seamDirections {
		seams := c.seams[dir]
		if len(seams) == 0 {
			continue
		}
		best := seams[0]
		for _, s := range seams[1:] {
			if s.Name < best.Name {
				best = s
			}
		}
		return best
	}
	return nil
}

// reachableFuncs BFSes the static call graph from the given roots,
// returning every module function reachable (roots included).
func reachableFuncs(idx *sumIndex, roots []string) map[string]bool {
	seen := make(map[string]bool)
	queue := append([]string(nil), roots...)
	sort.Strings(queue)
	for _, r := range queue {
		seen[r] = true
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		f := idx.funcs[cur]
		if f == nil {
			continue
		}
		for _, call := range f.Calls {
			if !seen[call.Callee] && idx.funcs[call.Callee] != nil {
				seen[call.Callee] = true
				queue = append(queue, call.Callee)
			}
		}
	}
	return seen
}
