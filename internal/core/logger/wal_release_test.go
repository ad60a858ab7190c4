package logger

import (
	"math/rand"
	"testing"
	"time"
)

// TestAppendReleasesScanCache: a store that is opened on a populated
// directory and never recovered — what every shard worker does — must
// not hold the decoded checkpoint and WAL tail for the rest of its life.
// The first append lets them go, and still continues the sequence.
func TestAppendReleasesScanCache(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l := New()
	history := genHistory(rand.New(rand.NewSource(13)), "fixw", 8)
	appendAll(t, s, l, history[:4])
	if err := s.WriteCheckpoint(l, nil, history[3].At); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, l, history[4:])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.ckpt == nil || len(s2.tail) != 4 {
		t.Fatalf("scan cached ckpt=%v and %d tail records, want a checkpoint and 4", s2.ckpt != nil, len(s2.tail))
	}
	last := s2.Stats().LastSeq
	gapAt := history[7].At.Add(30 * time.Minute)
	if err := s2.AppendGap("fixw", gapAt, "session dropped"); err != nil {
		t.Fatal(err)
	}
	if s2.ckpt != nil || s2.tail != nil {
		t.Fatalf("after an append the store still holds ckpt=%v and %d tail records", s2.ckpt != nil, len(s2.tail))
	}
	if !s2.HasData() {
		t.Fatal("HasData turned false once the cache was released")
	}
	if got := s2.Stats().LastSeq; got != last+1 {
		t.Fatalf("appended record got seq %d, want %d", got, last+1)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The log on disk is one unbroken sequence: checkpoint, the four
	// records past it, the gap.
	s3, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	ra := s3.Recover()
	if ra.Stats.TornTail || ra.Stats.RecordsReplayed != 5 {
		t.Fatalf("recovery after the append: %+v", ra.Stats)
	}
	l.MarkGap("fixw", gapAt, "session dropped")
	verifyEqual(t, l, ra.Logger)
}
