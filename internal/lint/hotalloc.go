package lint

// hotAllocAnalyzer flags allocation sites on declared hot paths: starting
// from the //mantra:hotpath root set (the engine's cycle chain, the
// tsdb append path, the WAL frame writer, the tables diff path), it
// walks the module's static call graph and reports composite literals,
// append/make/new growth and interface boxing in loops, string<->[]byte
// conversions, fmt calls, and escaping closure captures in every
// reachable function whose allocation-site count exceeds its budget.
//
// Budgets (//mantra:hotpath budget=N) are pinned at the current count,
// so a hot function's existing allocations are grandfathered explicitly
// while any new one fails the build — the static complement of the
// testing.AllocsPerRun gates generated from the same root set.
//
// The analysis is module-wide: the hot set and every finding are
// computed once per run over the per-package fact summaries. A
// malformed, duplicate or dangling //mantra:hotpath marker is a hotalloc
// finding too (marks.go): it would silently shrink the root set.
var hotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "allocation site reachable from a //mantra:hotpath root beyond the function's allocation budget, or a malformed or dangling //mantra:hotpath marker",
}
