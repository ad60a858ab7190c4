package logger

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/testfault"
)

// TestStoreSurfacesDiskFaults holds every write the WAL store makes to
// its return value and its error count. On a full disk, AppendDelta of
// a target the log has not announced fails at the announcement: one
// error, counted once, nothing appended, and the next append announces
// the target again. With fsync failing, a store that syncs every append
// returns the sync error, and so do WriteCheckpoint, which syncs the WAL
// before it covers it, and Close. A checkpoint file that cannot be
// written fails WriteCheckpoint too.
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
	defer s.Close()
	s.Recover()
	if err := os.Mkdir(filepath.Join(dir, ckptName(s.seq)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ckptName(s.seq), "occupied"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(l, nil, hist[3].At); err == nil {
		t.Error("WriteCheckpoint returned nil with a directory where its file goes")
	}
}
