// Fixture for the walerr analyzer; loaded "as" internal/core/logger (a
// crash-safety package).
package logger

import "os"

type seg struct{ f *os.File }

func (s *seg) writeFrame(b []byte) error { _, err := s.f.Write(b); return err }
func (s *seg) syncAll() error            { return s.f.Sync() }
func (s *seg) rotateSegment() error      { return nil }

func dropImplicit(s *seg, b []byte) {
	s.writeFrame(b) // want `writeFrame returns an error that is silently dropped`
}

func dropBlank(s *seg) {
	_ = s.syncAll() // want `syncAll returns an error that is discarded with _`
}

func dropDeferred(s *seg) {
	defer s.f.Close() // want `Close returns an error that is silently dropped \(deferred\)`
}

func dropGo(s *seg) {
	go s.rotateSegment() // want `rotateSegment returns an error that is silently dropped \(go statement\)`
}

// handled propagates the error — the contract, no finding.
func handled(s *seg, b []byte) error {
	if err := s.writeFrame(b); err != nil {
		return err
	}
	return s.syncAll()
}

// recorded folds the error into state — also fine.
func recorded(s *seg, b []byte, errCount *int) {
	if err := s.writeFrame(b); err != nil {
		*errCount++
	}
}

// nonWritePath calls are outside the write-verb surface; no finding even
// when the error is dropped.
func nonWritePath(stat func() error) {
	stat()
}

// suppressed is a documented best-effort site.
func suppressed(s *seg) {
	_ = s.syncAll() //mantralint:allow walerr fixture: best-effort on an error path already returning
}
