// Fixture for the lockorder analyzer: an AB/BA inversion seen once
// directly and once through a call, plus a direct recursive
// acquisition. Loaded as internal/netsim — lockorder is deliberately
// unscoped, so it must fire in any package.
package netsim

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

var (
	a A
	b B
)

// abOrder takes a.mu then b.mu — one leg of the inversion, with the
// inner acquisition in the same body.
func abOrder() {
	a.mu.Lock()
	b.mu.Lock() // want `netsim.B.mu acquired while a.mu \(netsim.A.mu\) is held, but the module also acquires these locks in the opposite order \(cycle: netsim.A.mu → netsim.B.mu → netsim.A.mu\); pick one order`
	b.mu.Unlock()
	a.mu.Unlock()
}

// baOrder takes b.mu then reaches a.mu through lockA — the other leg,
// propagated over the call graph.
func baOrder() {
	b.mu.Lock()
	lockA() // want `netsim.A.mu acquired via call to netsim.lockA while b.mu \(netsim.B.mu\) is held, but the module also acquires these locks in the opposite order`
	b.mu.Unlock()
}

func lockA() {
	a.mu.Lock()
	a.mu.Unlock()
}

// again locks one mutex expression twice in a row; sync mutexes are
// not reentrant, so this wedges with no second goroutine needed.
func again() {
	a.mu.Lock()
	a.mu.Lock() // want `a.mu locked again in netsim.again while already held \(locked at line 43\); sync mutexes are not reentrant`
	a.mu.Unlock()
	a.mu.Unlock()
}
