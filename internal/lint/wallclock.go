package lint

import (
	"go/ast"
)

// wallClockAnalyzer flags reads of the wall clock — time.Now, time.Since,
// time.Until — anywhere in module code. The monitor's cycle timestamps,
// engine instrumentation and simulations all run on injected clocks
// (sim.Clock, engine.Clock, collect.Target.Clock); a stray wall-clock
// read makes results irreproducible and breaks the virtual-time
// experiments. Bare references count too (assigning time.Now to a
// variable is still acquiring the wall clock), so every legitimate
// acquisition point — a composition root or a documented live-clock seam
// — carries an explicit allow comment.
var wallClockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "wall-clock reads (time.Now/Since/Until) outside an allowed injection seam",
	Run:  runWallClock,
}

var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runWallClock(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := pkgFuncRef(p, sel)
			if !ok || pkgPath != "time" || !wallClockFuncs[name] {
				return true
			}
			out = append(out, p.finding("wallclock", sel.Pos(),
				"time.%s reads the wall clock; thread the injected clock (sim.Clock, engine.Clock, or a now func() time.Time parameter)", name))
			return true
		})
	}
	return out
}
