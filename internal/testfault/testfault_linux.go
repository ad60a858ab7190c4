// Package testfault raises disk faults under the files a test's code
// holds open, for the tests that hold every archive write error to being
// returned or recorded. Raise re-points an open descriptor at a file
// that fails what the fault fails, so the *os.File the code holds stays
// a valid object while the kernel fails its calls.
package testfault

import (
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
)

// Full re-points a descriptor at /dev/full: every write fails (ENOSPC),
// and so does fsync (EINVAL). NoSync re-points it at the write end of a
// pipe whose read end stays open: writes succeed, fsync fails (EINVAL).
const (
	Full = iota
	NoSync
)

// OpenFD returns this process's descriptor of the last file under dir,
// in name order, whose name starts with prefix.
func OpenFD(t testing.TB, dir, prefix string) int {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, prefix+"*"))
	if len(paths) == 0 {
		t.Fatalf("no %s* file under %s", prefix, dir)
	}
	want := paths[len(paths)-1]
	ents, _ := os.ReadDir("/proc/self/fd")
	for _, e := range ents {
		if link, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && link == want {
			fd, _ := strconv.Atoi(e.Name())
			return fd
		}
	}
	t.Fatalf("%s is not open", want)
	return -1
}

// Target opens what fault k re-points a descriptor at.
func Target(t testing.TB, k int) *os.File {
	t.Helper()
	if k == Full {
		f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
		if err != nil {
			t.Skipf("no /dev/full: %v", err)
		}
		return f
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return w
}

// Raise re-points descriptor fd at fault k.
func Raise(t testing.TB, fd, k int) {
	t.Helper()
	to := Target(t, k)
	defer to.Close()
	if err := syscall.Dup3(int(to.Fd()), fd, 0); err != nil {
		t.Fatal(err)
	}
}
