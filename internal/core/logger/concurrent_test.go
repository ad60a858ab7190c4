package logger

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/testfault"
)

// TestStoreConcurrentUse drives one store from several goroutines at
// once, as its contract allows: four writers append their own target's
// deltas and a gap marker, over segments small enough to rotate every
// few records, while a reader loops on Stats and HasData. The store's
// mutex is the only lock any of them takes, so nothing may wait for
// long; a second lock taken around it in opposite orders deadlocks here,
// and the deadline fails the test with every goroutine's stack. After
// the writers finish, a reopened store must recover every target's
// history record for record: an append outside the mutex tears or
// duplicates frames.
func TestStoreConcurrentUse(t *testing.T) {
	testfault.Deadline(t, 10*time.Second)
	const writers, cycles = 4, 40
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Logger, writers)
	done := make(chan error, writers)
	for w := range want {
		want[w] = New()
		history := genHistory(rand.New(rand.NewSource(int64(w))), fmt.Sprintf("r%d", w), cycles)
		go func() {
			l := want[w]
			for i, sn := range history {
				if err := s.AppendDelta(sn.Target, l.Append(sn), uint64(len(sn.Pairs)+len(sn.Routes))); err != nil {
					done <- err
					return
				}
				if i == cycles/2 {
					at := sn.At.Add(time.Minute)
					l.MarkGap(sn.Target, at, "session dropped")
					if err := s.AppendGap(sn.Target, at, "session dropped"); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}()
	}
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
				s.Stats()
				s.HasData()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-read
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ra := s2.Recover()
	if ra.Stats.TornTail {
		t.Fatalf("concurrent appends left a torn tail: %+v", ra.Stats)
	}
	if n, w := ra.Stats.RecordsReplayed, writers*(cycles+2); n != w { // a meta, the deltas and a gap each
		t.Fatalf("RecordsReplayed = %d, want %d", n, w)
	}
	for _, l := range want {
		verifyEqual(t, l, ra.Logger)
	}
}
