package mantra_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	mantra "repro"
	"repro/internal/core/tables"
	"repro/internal/core/tsdb"
	"repro/internal/testfault"
)

// TestArchiveSurfacesDiskFaults holds the Monitor's archive to
// reporting every store error it meets, either as the error a call
// returns or on ArchiveStatus, and never as a failed cycle. Each fault
// gets a monitor of its own, because ArchiveStatus keeps the last error
// it saw.
func TestArchiveSurfacesDiskFaults(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	n, _ := newMonitoredNetwork(t)
	archived := func(cfg mantra.ArchiveConfig) *mantra.Monitor {
		t.Helper()
		m := mantra.New()
		rewire(m, n, "fixw", "ucsb-r1")
		if _, err := m.EnableArchive(cfg); err != nil {
			t.Fatal(err)
		}
		return m
	}
	cycle := func(m *mantra.Monitor) {
		t.Helper()
		if _, err := m.RunCycle(n.Now()); err != nil {
			t.Fatalf("a store fault failed the cycle: %v", err)
		}
	}
	walFD := func(dir string) int { return testfault.OpenFD(t, dir, "wal-") }
	n.Step()

	// A full disk under the WAL: the cycle's frames fail, the cycle does
	// not, and /archive says why.
	dir := t.TempDir()
	m := archived(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 1000})
	cycle(m)
	testfault.Raise(t, walFD(dir), testfault.Full)
	n.Step()
	cycle(m)
	if m.ArchiveStatus().LastAppendError == "" {
		t.Error("a cycle whose WAL frames failed left no LastAppendError")
	}

	// A WAL that cannot fsync: a checkpoint, which makes the WAL durable
	// before it covers it, returns the error.
	dir = t.TempDir()
	m = archived(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 1000})
	cycle(m)
	testfault.Raise(t, walFD(dir), testfault.NoSync)
	if err := m.Checkpoint(n.Now()); err == nil {
		t.Error("Checkpoint returned nil over a WAL that cannot fsync")
	}

	// The same fault under the automatic checkpoint: the appends succeed
	// (nothing syncs them), the checkpoint after the cycle fails, and
	// /archive says so.
	dir = t.TempDir()
	m = archived(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 2})
	cycle(m)
	testfault.Raise(t, walFD(dir), testfault.NoSync)
	n.Step()
	cycle(m)
	if m.ArchiveStatus().LastAppendError == "" {
		t.Error("a failed automatic checkpoint left no LastAppendError")
	}

	// A mirror that cannot be attached: a file where its directory goes.
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tsdb"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if m = archived(mantra.ArchiveConfig{Dir: dir}); m.ArchiveStatus().LastAppendError == "" {
		t.Error("a mirror that could not attach left no LastAppendError")
	}

	// The mirror's own faults. A block sealed on a full disk is not
	// mirrored, and /archive says so; a mirror that cannot fsync fails
	// CloseArchive.
	for _, k := range []int{testfault.Full, testfault.NoSync} {
		dir = t.TempDir()
		m = archived(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 1000})
		seal := func() {
			at := n.Now()
			for i := 0; i < tsdb.BlockPoints; i++ {
				at = at.Add(30 * time.Minute)
				m.Processor().Ingest(&tables.Snapshot{Target: "sealed", At: at, Routes: make(tables.RouteTable, i%9)})
			}
		}
		seal()
		testfault.Raise(t, testfault.OpenFD(t, filepath.Join(dir, "tsdb"), "tsdb-"), k)
		seal()
		if k == testfault.Full {
			if err := m.Checkpoint(n.Now()); err != nil {
				t.Fatal(err)
			}
			if m.ArchiveStatus().MirrorError == "" {
				t.Error("a block the mirror could not write left no MirrorError")
			}
		} else if err := m.CloseArchive(n.Now()); err == nil {
			t.Error("CloseArchive returned nil over a mirror that cannot fsync")
		}
	}
}
