package lint

// lockOrderAnalyzer lifts lockheld's per-receiver critical sections into
// a module-wide lock-acquisition graph: an edge A → B is recorded
// whenever lock class B (a named type's mutex field, or a package-level
// mutex) is acquired — directly or through any static call chain —
// while class A is held. Cycles in that graph, including the classic
// AB/BA pairwise inversion, are potential deadlocks: two goroutines
// entering the cycle from different points wedge forever, which is
// exactly how the PR 6 session-write deadlock presented. Direct
// recursive acquisition of one mutex expression is reported too (sync
// mutexes are not reentrant).
//
// Unlike lockheld, lockorder is not scoped to the engine-boundary
// packages: a deadlock shape is a defect wherever it appears — the PR 6
// wedge lived in internal/core/collect, outside lockheld's scope, and
// was only found by a chaos test. Edges between two instances of the
// same class are not recorded: ordering between values of one type is
// identity the static graph cannot see.
var lockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisition cycle across the module call graph (lock-order inversion, recursive acquisition) — potential deadlock",
}
