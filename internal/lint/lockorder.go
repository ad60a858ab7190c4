package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// lockOrderAnalyzer builds a module-wide lock-acquisition graph: an
// edge A → B is recorded whenever lock class B (a named type's mutex
// field, or a package-level mutex) is acquired — directly or through
// any static call chain — while class A is held. A critical section
// runs from a Lock/RLock call to the first matching non-deferred
// Unlock/RUnlock on the same receiver, or to the end of the function
// when the unlock is deferred. Cycles in that graph, including the
// classic AB/BA pairwise inversion, are potential deadlocks: two
// goroutines entering the cycle from different points wedge forever,
// which is exactly how the collector's session-write deadlock presented.
// Direct recursive acquisition of one mutex expression is reported too
// (sync mutexes are not reentrant).
//
// The check runs module-wide: that wedge lived in internal/core/collect
// and was only found by a chaos test. Edges
// between two instances of the same class are not recorded: ordering
// between values of one type is identity the static graph cannot see.
var lockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisition cycle across the module call graph (lock-order inversion, recursive acquisition) — potential deadlock",
}

var lockMethods = map[string]bool{
	"(*sync.Mutex).Lock":    true,
	"(*sync.RWMutex).Lock":  true,
	"(*sync.RWMutex).RLock": true,
}

var unlockMethods = map[string]bool{
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RUnlock": true,
}

// lockCall matches a call to (R)Lock/(R)Unlock on a sync mutex,
// returning the receiver expression rendered as a string so sections on
// distinct locks (s.mu vs s.seglk) are tracked independently.
func lockCall(p *Package, call *ast.CallExpr, set map[string]bool) (recv string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	fn := staticCallee(p, call)
	if fn == nil || !set[fn.FullName()] {
		return "", false
	}
	return types.ExprString(sel.X), true
}

// sumIndex is the name-keyed view of all summaries.
type sumIndex struct {
	funcs map[string]*FuncSum // FullName → summary
	names []string            // sorted FullNames, for deterministic iteration
}

func newSumIndex(sums []*PkgSummary) *sumIndex {
	idx := &sumIndex{funcs: make(map[string]*FuncSum)}
	for _, s := range sums {
		for _, f := range s.Funcs {
			idx.funcs[f.Name] = f
			idx.names = append(idx.names, f.Name)
		}
	}
	sort.Strings(idx.names)
	return idx
}

// lockEdge is one observed ordering: To acquired while From is held.
type lockEdge struct {
	from, to string
	// site is where the inner acquisition happens (directly, or the call
	// that transitively acquires).
	site Pos
	fn   string // FullName of the function containing the site
	// via names the callee chain head for call-propagated edges, "" for
	// direct nested acquisitions.
	via      string
	holdExpr string
}

// lockOrderFindings builds the module-wide lock-acquisition graph and
// reports (a) direct recursive acquisition of one mutex expression and
// (b) every edge that participates in a cycle — the AB/BA inversion and
// its longer cousins — as a potential deadlock.
func lockOrderFindings(idx *sumIndex, add func(Finding)) {
	// Transitive acquire sets, to fixpoint: which lock classes can a
	// call into fn end up acquiring?
	acquires := make(map[string]map[string]bool)
	for _, name := range idx.names {
		set := make(map[string]bool)
		for _, ev := range idx.funcs[name].Locks {
			if !ev.Unlock {
				set[ev.Class] = true
			}
		}
		acquires[name] = set
	}
	for changed := true; changed; {
		changed = false
		for _, name := range idx.names {
			set := acquires[name]
			for _, c := range idx.funcs[name].Calls {
				for cls := range acquires[c.Callee] {
					if !set[cls] {
						set[cls] = true
						changed = true
					}
				}
			}
		}
	}

	var edges []lockEdge
	for _, name := range idx.names {
		f := idx.funcs[name]
		for i, ev := range f.Locks {
			if ev.Unlock {
				continue
			}
			// Section: this lock to the first non-deferred unlock of the
			// same expression after it, else the function end (deferred
			// unlock or caller-must-unlock).
			end := f.End
			for _, un := range f.Locks {
				if un.Unlock && !un.Deferred && un.Expr == ev.Expr && ev.Pos.before(un.Pos) {
					end = un.Pos
					break
				}
			}
			// Direct nested acquisitions inside the section.
			for j, in := range f.Locks {
				if j == i || in.Unlock || !ev.Pos.before(in.Pos) || !in.Pos.before(end) {
					continue
				}
				if in.Class == ev.Class {
					if in.Expr == ev.Expr {
						add(Finding{
							Pos:   posOf(in.Pos),
							Check: "lockorder",
							Message: fmt.Sprintf("%s locked again in %s while already held (locked at line %d); sync mutexes are not reentrant — this deadlocks",
								in.Expr, f.Short, ev.Pos.Line),
						})
					}
					// Same class, different expression: two instances —
					// order between instances of one class is value
					// identity the static graph cannot see; stay quiet.
					continue
				}
				edges = append(edges, lockEdge{from: ev.Class, to: in.Class, site: in.Pos, fn: name, holdExpr: ev.Expr})
			}
			// Call-propagated acquisitions inside the section.
			for _, c := range f.Calls {
				if !ev.Pos.before(c.Pos) || !c.Pos.before(end) {
					continue
				}
				callee := idx.funcs[c.Callee]
				if callee == nil {
					continue
				}
				for cls := range acquires[c.Callee] {
					if cls == ev.Class {
						continue // instance-ambiguous; see above
					}
					edges = append(edges, lockEdge{from: ev.Class, to: cls, site: c.Pos, fn: name, via: callee.Short, holdExpr: ev.Expr})
				}
			}
		}
	}

	// Cycle detection over the class graph: any strongly connected
	// component with more than one class (or a 2-cycle's pair of edges)
	// means some pair of goroutines can acquire in opposite orders.
	adj := make(map[string]map[string]bool)
	classes := make(map[string]bool)
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[string]bool)
		}
		adj[e.from][e.to] = true
		classes[e.from], classes[e.to] = true, true
	}
	scc := stronglyConnected(classes, adj)

	// Deterministic edge order for reporting.
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.site.File != b.site.File {
			return a.site.File < b.site.File
		}
		if a.site.Line != b.site.Line {
			return a.site.Line < b.site.Line
		}
		if a.site.Col != b.site.Col {
			return a.site.Col < b.site.Col
		}
		return a.from+a.to < b.from+b.to
	})
	seen := make(map[string]bool) // dedup repeated (from,to) at one site
	for _, e := range edges {
		comp := scc[e.from]
		if comp < 0 || comp != scc[e.to] {
			continue // edge not inside a cycle
		}
		key := fmt.Sprintf("%s|%d|%d|%s|%s", e.site.File, e.site.Line, e.site.Col, e.from, e.to)
		if seen[key] {
			continue
		}
		seen[key] = true
		cyc := cycleString(e.from, scc, adj)
		how := "acquired"
		if e.via != "" {
			how = "acquired via call to " + e.via
		}
		add(Finding{
			Pos:   posOf(e.site),
			Check: "lockorder",
			Message: fmt.Sprintf("%s %s while %s (%s) is held, but the module also acquires these locks in the opposite order (cycle: %s); pick one order — this can deadlock",
				pkgShort(e.to), how, e.holdExpr, pkgShort(e.from), cyc),
		})
	}
}

// stronglyConnected assigns each class a component id; classes alone in
// a component with no self-loop get -1 (not part of any cycle).
func stronglyConnected(classes map[string]bool, adj map[string]map[string]bool) map[string]int {
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)

	// Iterative Tarjan.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	next, compID := 0, 0

	sortedAdj := func(c string) []string {
		var out []string
		for t := range adj[c] {
			out = append(out, t)
		}
		sort.Strings(out)
		return out
	}

	type frame struct {
		node string
		succ []string
		i    int
	}
	for _, root := range names {
		if _, done := index[root]; done {
			continue
		}
		frames := []frame{{node: root, succ: sortedAdj(root)}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.succ) {
				w := f.succ[f.i]
				f.i++
				if _, vis := index[w]; !vis {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w, succ: sortedAdj(w)})
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			// Pop.
			n := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				if low[n] < low[parent] {
					low[parent] = low[n]
				}
			}
			if low[n] == index[n] {
				size := 0
				selfLoop := false
				for i := len(stack) - 1; i >= 0; i-- {
					size++
					if stack[i] == n {
						break
					}
				}
				members := stack[len(stack)-size:]
				stack = stack[:len(stack)-size]
				for _, m := range members {
					onStack[m] = false
					if adj[m][m] {
						selfLoop = true
					}
				}
				id := compID
				if size == 1 && !selfLoop {
					id = -1
				} else {
					compID++
				}
				for _, m := range members {
					comp[m] = id
				}
			}
		}
	}
	return comp
}

// cycleString renders the cycle through a class's component
// canonically: members sorted, closed back to the first.
func cycleString(class string, scc map[string]int, adj map[string]map[string]bool) string {
	id := scc[class]
	var members []string
	for c, cid := range scc {
		if cid == id {
			members = append(members, pkgShort(c))
		}
	}
	sort.Strings(members)
	return strings.Join(append(members, members[0]), " → ")
}
