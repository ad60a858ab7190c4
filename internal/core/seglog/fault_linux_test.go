package seglog_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/core/seglog"
	"repro/internal/testfault"
)

// TestAppendSurfacesWriteAndSyncFaults drives the segment log into the
// two faults a disk raises under it. On a full disk the frame write
// fails: Append returns 0 and the error, and the segment keeps its size.
// When fsync fails, every call that syncs says so: Sync, the Append
// whose frame fills the segment and so closes it, and Close.
func TestAppendSurfacesWriteAndSyncFaults(t *testing.T) {
	dir := t.TempDir()
	l, _, err := seglog.Open(dir, testPrefix, testMagic, testLimit, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, testPayload(1)); err != nil {
		t.Fatal(err)
	}
	before := l.Segments()[0]
	fd := testfault.OpenFD(t, dir, testPrefix)
	testfault.Raise(t, fd, testfault.Full)
	if n, err := l.Append(2, testPayload(2)); n != 0 || err == nil {
		t.Fatalf("append on a full disk = %d, %v; want 0 and the write error", n, err)
	}
	if got := l.Segments()[0]; got != before {
		t.Fatalf("a failed append moved the segment from %+v to %+v", before, got)
	}

	testfault.Raise(t, fd, testfault.NoSync)
	if err := l.Sync(); err == nil {
		t.Error("Sync returned nil on a segment that cannot fsync")
	}
	rotated := false
	for id := uint64(3); id < 20 && !rotated; id++ {
		n, err := l.Append(id, testPayload(int(id)))
		if n == 0 {
			t.Fatalf("append %d wrote nothing: %v", id, err)
		}
		if segs := l.Segments(); segs[len(segs)-1].Size >= testLimit {
			rotated = true
			if err == nil {
				t.Error("the append that filled the segment returned nil, but closing it could not fsync")
			}
		}
	}
	if !rotated {
		t.Fatal("the segment never filled")
	}

	if _, err := l.Append(30, testPayload(30)); err != nil {
		t.Fatal(err)
	}
	testfault.Raise(t, testfault.OpenFD(t, dir, testPrefix), testfault.NoSync)
	if err := l.Close(); err == nil {
		t.Error("Close returned nil on a segment that cannot fsync")
	}
}

// TestWriteFileSurfacesSyncAndRenameFaults holds WriteFile to its
// atomic contract under the faults a test can raise: a temporary that
// cannot fsync (a pipe in its place, or its descriptor re-pointed at
// /dev/null while the payload streams) and a rename that cannot land (a
// directory in the way). Each returns the error, and none leaves the
// target path holding a file. On the pipe the first step to fail is the
// header's write at offset 0 (a pipe cannot seek), which comes after
// the payload and before the fsync; /dev/null takes that write and
// fails the fsync.
func TestWriteFileSurfacesSyncAndRenameFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	pipe := testfault.Target(t, testfault.NoSync)
	defer pipe.Close()
	if err := os.Symlink("/proc/self/fd/"+strconv.Itoa(int(pipe.Fd())), path+seglog.TempSuffix); err != nil {
		t.Fatal(err)
	}
	if err := seglog.WriteFile(path, testMagic, []byte("body")); err == nil {
		t.Error("WriteFile returned nil with a temporary that cannot fsync")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a failed WriteFile left %s: %v", path, err)
	}
	if err := os.Remove(path + seglog.TempSuffix); err != nil {
		t.Fatal(err)
	}

	_, err := seglog.WriteFileFrom(path, testMagic, func(w io.Writer) error {
		null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		defer null.Close()
		if err := syscall.Dup3(int(null.Fd()), testfault.OpenFD(t, dir, "ckpt"), 0); err != nil {
			return err
		}
		_, err = w.Write([]byte("body"))
		return err
	})
	if !errors.Is(err, syscall.EINVAL) {
		t.Errorf("WriteFileFrom onto a temporary that cannot fsync: err = %v, want EINVAL", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a failed WriteFileFrom left %s: %v", path, err)
	}

	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := seglog.WriteFile(path, testMagic, []byte("body")); err == nil {
		t.Error("WriteFile returned nil with a directory where its file goes")
	}
}

// TestOpenSurfacesRepairFault tears a segment's tail and makes the file
// immutable, so Open's repair cannot truncate it even as root. Open must
// refuse the log rather than keep a tear it could not cut. The log is
// reopened with a limit the segment already exceeds, so Open does not
// reopen the segment to append, which the same attribute would refuse.
func TestOpenSurfacesRepairFault(t *testing.T) {
	dir := t.TempDir()
	l, _, err := seglog.Open(dir, testPrefix, testMagic, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 5; id++ {
		if _, err := l.Append(id, testPayload(int(id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, seglog.Name(testPrefix, l.Segments()[0].ID, ".seg"))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	immutable(t, path)
	keep := func([]byte) error { return nil }
	if _, _, err := seglog.Open(dir, testPrefix, testMagic, testLimit, keep); err == nil {
		t.Fatal("Open returned a log whose torn tail it could not truncate")
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
