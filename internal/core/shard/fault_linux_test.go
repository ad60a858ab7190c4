package shard_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/core/collect"
	"repro/internal/core/shard"
	"repro/internal/testfault"
)

// TestSupervisorSurfacesStoreFaults holds the supervisor to reporting
// every store error of its workers. A cycle whose WAL frames fail says
// so in WALErrs; a dead worker whose store cannot fsync says so at the
// reap that closes it; the gap markers a restarted worker writes for
// targets that sat unassigned say so when its store refuses them; Close
// returns a store's close error; and a store that cannot open fails New.
func TestSupervisorSurfacesStoreFaults(t *testing.T) {
	n := newFleetNetwork(t)
	cfg := fleetConfig(2, 0)
	cfg.DataDir = t.TempDir()
	s := newFleet(t, n, cfg)
	shardDir := func(i int) string { return filepath.Join(cfg.DataDir, fmt.Sprintf("shard-%02d", i)) }
	walFD := func(i int) int { return testfault.OpenFD(t, shardDir(i), "wal-") }
	hasErr := func(res *shard.CycleResult, sub string) bool {
		for _, err := range res.WALErrs {
			if strings.Contains(err.Error(), sub) {
				return true
			}
		}
		return false
	}
	step(t, n, s)
	a, _ := victimShard(t, s)
	tag := fmt.Sprintf("shard %d:", a)

	fd := walFD(a)
	testfault.Raise(t, fd, testfault.Full)
	if res := step(t, n, s); !hasErr(res, tag) {
		t.Errorf("shard %d's WAL frames failed and WALErrs does not say so: %v", a, res.WALErrs)
	}
	testfault.Raise(t, fd, testfault.NoSync)
	s.Kill(a, shard.KillBeforeCycle)
	step(t, n, s)
	if res := step(t, n, s); res.Handoffs != 1 || !hasErr(res, tag) {
		t.Errorf("the reap closed shard %d's store, which could not fsync, and WALErrs does not say so: %+v", a, res)
	}

	// A total outage leaves every target unassigned; the restarted
	// worker marks the dark window on a store whose directory is wiped
	// and immutable, so no segment can be created.
	cfg.DataDir = t.TempDir()
	s = newFleet(t, n, cfg)
	step(t, n, s)
	s.Kill(0, shard.KillBeforeCycle)
	s.Kill(1, shard.KillBeforeCycle)
	step(t, n, s)
	step(t, n, s)
	for i := 0; i < 2; i++ {
		ents, _ := os.ReadDir(shardDir(i))
		for _, e := range ents {
			if err := os.Remove(filepath.Join(shardDir(i), e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		immutable(t, shardDir(i))
	}
	restarted := false
	for i := 0; i < 4 && !restarted; i++ {
		res := step(t, n, s)
		if len(res.Stats) == 0 {
			continue
		}
		restarted = true
		if !hasErr(res, "handoff gap marker for") {
			t.Errorf("the restarted worker's gap markers failed and WALErrs does not say so: %v", res.WALErrs)
		}
	}
	if !restarted {
		t.Fatal("no worker restarted")
	}

	cfg.DataDir = t.TempDir()
	s2, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range fleetTargets {
		s2.Register(collect.Target{Name: name, Dialer: collect.PipeDialer{Router: n.Router(name)}, Password: "pw", Prompt: name + "> ", Timeout: fleetTimeout})
	}
	step(t, n, s2)
	testfault.Raise(t, walFD(a), testfault.NoSync)
	if err := s2.Close(); err == nil {
		t.Error("Close returned nil with a store that could not fsync")
	}

	cfg.DataDir = t.TempDir()
	if err := os.WriteFile(shardDir(0), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if s3, err := shard.New(cfg); err == nil {
		s3.Close()
		t.Error("New returned a supervisor whose shard 0 store could not open")
	}
}

// immutable sets the immutable attribute on path until the test ends,
// which stops even root from changing the file, or a directory's
// entries. Where it cannot be set, the test is skipped.
func immutable(t *testing.T, path string) {
	t.Helper()
	if err := setFlag(path, 0x10, true); err != nil { // FS_IMMUTABLE_FL
		t.Skipf("cannot make %s immutable: %v", path, err)
	}
	t.Cleanup(func() { setFlag(path, 0x10, false) })
}

func setFlag(path string, flag int32, on bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var flags int32
	for _, req := range []uintptr{0x80086601, 0x40086602} { // FS_IOC_GETFLAGS, FS_IOC_SETFLAGS
		if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), req, uintptr(unsafe.Pointer(&flags))); e != 0 {
			return e
		}
		if on {
			flags |= flag
		} else {
			flags &^= flag
		}
	}
	return nil
}
