// Regression fixture pinning the PR 6 session-write wedge shape: the
// send path held the session mutex while pushing into the write queue,
// and the drain goroutine held the queue mutex while touching session
// state — a classic AB/BA inversion that wedged live collectors. It
// lived in internal/core/collect; this fixture loads under that rel path
// to prove the module-wide check fires there.
package collect

import "sync"

type sessionM struct {
	mu sync.Mutex
	q  *writeQ
}

type writeQ struct {
	mu  sync.Mutex
	buf []byte
}

// send is the Run-loop direction: session lock, then queue lock via
// push.
func (s *sessionM) send(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.q.push(b) // want `collect.writeQ.mu acquired via call to \(\*writeQ\).push while s.mu \(collect.sessionM.mu\) is held, but the module also acquires these locks in the opposite order \(cycle: collect.sessionM.mu → collect.writeQ.mu → collect.sessionM.mu\)`
}

func (q *writeQ) push(b []byte) {
	q.mu.Lock()
	q.buf = append(q.buf, b...)
	q.mu.Unlock()
}

// drain is the writer-goroutine direction PR 6 introduced: queue lock,
// then session lock via touch.
func (q *writeQ) drain(s *sessionM) {
	q.mu.Lock()
	s.touch() // want `collect.sessionM.mu acquired via call to \(\*sessionM\).touch while q.mu \(collect.writeQ.mu\) is held, but the module also acquires these locks in the opposite order`
	q.mu.Unlock()
}

func (s *sessionM) touch() {
	s.mu.Lock()
	s.mu.Unlock()
}
