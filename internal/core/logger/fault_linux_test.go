package logger

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/core/seglog"
	"repro/internal/testfault"
)

// TestStoreSurfacesDiskFaults holds every write the WAL store makes to
// its return value and its error count. On a full disk, AppendDelta of
// a target the log has not announced fails at the announcement: one
// error, counted once, nothing appended, and the next append announces
// the target again. With fsync failing, a store that syncs every append
// returns the sync error, and so do WriteCheckpoint, which syncs the WAL
// before it covers it, and Close. A checkpoint file that cannot be
// written fails WriteCheckpoint too, and so does one that breaks partway
// through its body (a pipe whose reader leaves after a few bytes), after
// which recovery loads the checkpoint written before it.
func TestStoreSurfacesDiskFaults(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	l := New()
	hist := genHistory(rand.New(rand.NewSource(5)), "fixw", 4)
	appendAll(t, s, l, hist[:2])
	fd := testfault.OpenFD(t, dir, walPrefix)

	testfault.Raise(t, fd, testfault.Full)
	before := s.Stats()
	rec := New().Append(hist[0])
	if err := s.AppendDelta("ucsb-r1", rec, 1); err == nil {
		t.Error("AppendDelta returned nil on a full disk")
	}
	after := s.Stats()
	if after.AppendErrors != before.AppendErrors+1 || after.AppendedRecords != before.AppendedRecords {
		t.Errorf("a failed first append counted %d errors and %d records, want 1 and 0",
			after.AppendErrors-before.AppendErrors, after.AppendedRecords-before.AppendedRecords)
	}
	if s.metaSeen["ucsb-r1"] {
		t.Error("a target whose announcement failed is marked announced")
	}

	testfault.Raise(t, fd, testfault.NoSync)
	if err := s.AppendDelta("fixw", l.Append(hist[2]), 1); err == nil {
		t.Error("AppendDelta returned nil when its fsync failed")
	}
	if err := s.WriteCheckpoint(l, nil, hist[2].At); err == nil {
		t.Error("WriteCheckpoint returned nil when the WAL it covers could not fsync")
	}
	if err := s.Close(); err == nil {
		t.Error("Close returned nil when the segment could not fsync")
	}

	s, err = OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l = s.Recover().Logger
	if err := os.Mkdir(filepath.Join(dir, ckptName(s.seq)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ckptName(s.seq), "occupied"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(l, nil, hist[3].At); err == nil {
		t.Error("WriteCheckpoint returned nil with a directory where its file goes")
	}

	if err := os.RemoveAll(filepath.Join(dir, ckptName(s.seq))); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(l, []byte("kept"), hist[3].At); err != nil {
		t.Fatal(err)
	}
	kept := s.Stats().CheckpointSeq
	appendAll(t, s, l, genHistory(rand.New(rand.NewSource(6)), "ucsb-r1", 3))
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := os.Symlink("/proc/self/fd/"+strconv.Itoa(int(w.Fd())), filepath.Join(dir, ckptName(s.seq)+seglog.TempSuffix)); err != nil {
		t.Fatal(err)
	}
	read := make(chan struct{})
	go func() {
		defer close(read)
		_, _ = io.ReadFull(r, make([]byte, 24)) // the header and the body's first bytes
		r.Close()
	}()
	if err := s.WriteCheckpoint(l, make([]byte, 1<<20), hist[3].At.Add(time.Hour)); !errors.Is(err, syscall.EPIPE) {
		t.Fatalf("a checkpoint broken partway through its body: err = %v, want EPIPE", err)
	}
	<-read
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ra := s.Recover()
	if ra.Stats.CheckpointSeq != kept || !ra.CheckpointAt.Equal(hist[3].At) || string(ra.Extra) != "kept" {
		t.Fatalf("recovery loaded checkpoint seq %d at %v with extra %.8q, want seq %d at %v with \"kept\"",
			ra.Stats.CheckpointSeq, ra.CheckpointAt, ra.Extra, kept, hist[3].At)
	}
	verifyEqual(t, l, ra.Logger)
}
