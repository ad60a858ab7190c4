package seglog_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core/seglog"
)

const (
	testPrefix = "t-"
	testMagic  = "TESTLOG1"
	testLimit  = 64
)

func testPayload(i int) []byte {
	return []byte(fmt.Sprintf("%02d:%s", i, strings.Repeat("p", 5+i%4)))
}

// inOrder is the visitor a caller with sequence numbers brings: it
// collects payloads and rejects one that is not the next in sequence,
// which is the only way a log of opaque payloads can notice that a whole
// frame went missing at a segment's clean end.
func inOrder(seen *[][]byte) seglog.Visitor {
	return func(p []byte) error {
		var i int
		if _, err := fmt.Sscanf(string(p), "%02d:", &i); err != nil || i != len(*seen) {
			return errors.New("out of sequence")
		}
		*seen = append(*seen, p)
		return nil
	}
}

// segFile is one segment of the reference log: its name, its bytes, the
// index of its first frame and the offset at which each frame ends.
type segFile struct {
	name  string
	data  []byte
	first int
	ends  []int
}

// survivors is how many of the segment's frames lie wholly before off.
func (sf segFile) survivors(off int) int {
	n := 0
	for _, end := range sf.ends {
		if end <= off {
			n++
		}
	}
	return n
}

// buildReference appends frames payloads to a fresh log and returns its
// segments, which must number three with the last one still open.
func buildReference(t *testing.T, frames int) []segFile {
	t.Helper()
	dir := t.TempDir()
	l, rep, err := seglog.Open(dir, testPrefix, testMagic, testLimit, inOrder(new([][]byte)))
	if err != nil || rep.Defect != "" {
		t.Fatalf("open empty dir: %v, %+v", err, rep)
	}
	for i := 0; i < frames; i++ {
		p := testPayload(i)
		if n, err := l.Append(uint64(i+1), p); err != nil || n != seglog.FrameHeader+len(p) {
			t.Fatalf("append %d: n=%d err=%v", i, n, err)
		}
	}
	segs := append([]seglog.Segment(nil), l.Segments()...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 || segs[2].Size >= testLimit {
		t.Fatalf("reference log = %+v, want three segments, the last below the limit", segs)
	}
	var out []segFile
	first := 0
	for _, seg := range segs {
		sf := segFile{name: seglog.Name(testPrefix, seg.ID, ".seg"), first: first}
		if sf.data, err = os.ReadFile(filepath.Join(dir, sf.name)); err != nil {
			t.Fatal(err)
		}
		if int64(len(sf.data)) != seg.Size || seg.ID != uint64(first+1) {
			t.Fatalf("%s: %d bytes on disk, listed %+v, first frame %d", sf.name, len(sf.data), seg, first)
		}
		off := len(testMagic)
		for i := 0; i < seg.Frames; i++ {
			off += seglog.FrameHeader + len(testPayload(first+i))
			sf.ends = append(sf.ends, off)
		}
		first += seg.Frames
		out = append(out, sf)
	}
	if first != frames {
		t.Fatalf("segments list %d frames, appended %d", first, frames)
	}
	return out
}

// reopen writes the reference segments, with segment k's bytes replaced
// by mut, into a fresh directory, opens it, and checks everything the
// repair promises given that want frames should survive and whether the
// damage is one a scan can see.
func reopen(t *testing.T, what string, ref []segFile, k int, mut []byte, want int, wantTorn bool) {
	t.Helper()
	dir := t.TempDir()
	for i, sf := range ref {
		data := sf.data
		if i == k {
			data = mut
		}
		if err := os.WriteFile(filepath.Join(dir, sf.name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var seen [][]byte
	l, rep, err := seglog.Open(dir, testPrefix, testMagic, testLimit, inOrder(&seen))
	if err != nil {
		t.Fatalf("%s: open: %v", what, err)
	}

	// A prefix of what was appended, nothing else.
	if len(seen) != want {
		t.Fatalf("%s: %d payloads survived, want %d (%+v)", what, len(seen), want, rep)
	}
	for i, p := range seen {
		if !bytes.Equal(p, testPayload(i)) {
			t.Fatalf("%s: payload %d = %q, never appended", what, i, p)
		}
	}
	if torn := rep.Defect != ""; torn != wantTorn {
		t.Fatalf("%s: repair %+v with %d payloads, want torn = %v", what, rep, want, wantTorn)
	}

	// The files on disk are exactly the listed segments, which end at
	// the tear and account for every surviving frame and every lost byte.
	onDisk, err := seglog.List(dir, testPrefix, ".seg")
	if err != nil {
		t.Fatal(err)
	}
	var listedFrames int
	var kept int64
	for i, seg := range l.Segments() {
		fi, err := os.Stat(filepath.Join(dir, seglog.Name(testPrefix, seg.ID, ".seg")))
		if err != nil || fi.Size() != seg.Size || i >= len(onDisk) || onDisk[i] != seg.ID {
			t.Fatalf("%s: segment %+v is not file %d of %v (%v)", what, seg, i, onDisk, err)
		}
		listedFrames += seg.Frames
		kept += seg.Size
	}
	if len(onDisk) != len(l.Segments()) || listedFrames != want {
		t.Fatalf("%s: files %v, segments %+v, want %d frames", what, onDisk, l.Segments(), want)
	}
	var had int64
	for i, sf := range ref {
		if i == k {
			had += int64(len(mut))
		} else {
			had += int64(len(sf.data))
		}
	}
	if had-kept != rep.TruncatedBytes {
		t.Fatalf("%s: %d bytes before, %d kept, repair reports %d truncated", what, had, kept, rep.TruncatedBytes)
	}

	// Appends continue from the tear.
	if _, err := l.Append(uint64(want+1), testPayload(want)); err != nil {
		t.Fatalf("%s: append after repair: %v", what, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seen = nil
	l, rep, err = seglog.Open(dir, testPrefix, testMagic, testLimit, inOrder(&seen))
	if err != nil || rep.Defect != "" || len(seen) != want+1 {
		t.Fatalf("%s: after append: %d payloads, want %d (%v, %+v)", what, len(seen), want+1, err, rep)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepEveryTruncationAndFlip damages a three-segment log in every
// way a single fault can — each segment cut at every offset, every bit
// of every byte flipped — and checks the repair each time.
func TestSweepEveryTruncationAndFlip(t *testing.T) {
	const total = 10
	ref := buildReference(t, total)
	for k, sf := range ref {
		for cut := 0; cut <= len(sf.data); cut++ {
			// A cut at the very end is no damage at all. Any other loses
			// the rest of this segment and, because the next segment's
			// first payload is then out of sequence, everything after.
			// The one cut no scan can see leaves the last segment ending
			// between two frames: that is a shorter log, not a torn one.
			want, torn := total, false
			if cut < len(sf.data) {
				want = sf.first + sf.survivors(cut)
				atBoundary := cut == len(testMagic) || sf.survivors(cut) > sf.survivors(cut-1)
				torn = k < len(ref)-1 || !atBoundary
			}
			reopen(t, fmt.Sprintf("%s cut at %d", sf.name, cut), ref, k, sf.data[:cut], want, torn)
		}
		for pos := range sf.data {
			for bit := 0; bit < 8; bit++ {
				if testing.Short() && bit != pos%8 {
					continue
				}
				mut := append([]byte(nil), sf.data...)
				mut[pos] ^= 1 << bit
				// The frame holding the flipped byte fails its checksum
				// (or its length no longer fits); a flipped magic loses
				// the whole segment.
				reopen(t, fmt.Sprintf("%s bit %d of byte %d", sf.name, bit, pos), ref, k, mut, sf.first+sf.survivors(pos), true)
			}
		}
	}
}

func TestAppendRejectsWhatScanWould(t *testing.T) {
	dir := t.TempDir()
	l, _, err := seglog.Open(dir, testPrefix, testMagic, testLimit, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n, err := l.Append(1, nil); err == nil || n != 0 {
		t.Fatalf("empty payload: n=%d err=%v, want rejected (a zero length reads as a tear)", n, err)
	}
	if _, err := l.Append(5, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := l.Append(5, []byte("b")); err == nil || n != 0 {
		t.Fatalf("segment ID reused: n=%d err=%v, want rejected (names must sort in append order)", n, err)
	}
}

func TestPruneKeepsTheOpenSegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := seglog.Open(dir, testPrefix, testMagic, testLimit, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ { // two full segments and an open one
		if _, err := l.Append(uint64(i+1), testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Prune(func(seglog.Segment) bool { return true })
	ids, err := seglog.List(dir, testPrefix, ".seg")
	if err != nil || len(ids) != 1 || len(l.Segments()) != 1 || l.Segments()[0].ID != ids[0] {
		t.Fatalf("after pruning everything: files %v, segments %+v (%v)", ids, l.Segments(), err)
	}
	if _, err := l.Append(11, testPayload(10)); err != nil {
		t.Fatalf("append after prune: %v", err)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	payload := []byte("checkpoint body")
	if err := seglog.WriteFile(path, testMagic, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + seglog.TempSuffix); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	got, err := seglog.ReadFile(path, testMagic)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if _, err := seglog.ReadFile(path, "OTHERMAG"); err == nil {
		t.Fatal("wrong magic accepted")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := seglog.ReadFile(path, testMagic); err == nil {
			t.Fatalf("file cut at %d accepted", cut)
		}
	}
	for pos := range data {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := seglog.ReadFile(path, testMagic); err == nil {
			t.Fatalf("flip at byte %d accepted", pos)
		}
	}
}

// TestWriteFileFromStreams: a payload written in pieces makes the file
// WriteFile makes of the whole, and a body that fails midway returns
// its error and leaves the target path as it was: absent, then holding
// the last complete write.
func TestWriteFileFromStreams(t *testing.T) {
	dir := t.TempDir()
	whole, streamed := filepath.Join(dir, "whole"), filepath.Join(dir, "streamed")
	payload := bytes.Repeat([]byte("checkpoint body "), 1000)
	if err := seglog.WriteFile(whole, testMagic, payload); err != nil {
		t.Fatal(err)
	}
	pieces := func(fail error) func(w io.Writer) error {
		return func(w io.Writer) error {
			for rest := payload; len(rest) > 0; rest = rest[min(len(rest), 3000):] {
				if fail != nil && len(rest) < len(payload)/2 {
					return fail
				}
				if _, err := w.Write(rest[:min(len(rest), 3000)]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	broken := errors.New("encoder failed")
	if _, err := seglog.WriteFileFrom(streamed, testMagic, pieces(broken)); !errors.Is(err, broken) {
		t.Fatalf("a body failing midway: err = %v, want %v", err, broken)
	}
	if _, err := os.Stat(streamed); !os.IsNotExist(err) {
		t.Fatalf("a failed write left %s: %v", streamed, err)
	}
	if n, err := seglog.WriteFileFrom(streamed, testMagic, pieces(nil)); err != nil || n != int64(len(payload)) {
		t.Fatalf("WriteFileFrom = %d, %v; want %d bytes", n, err, len(payload))
	}
	want, _ := os.ReadFile(whole)
	if got, _ := os.ReadFile(streamed); !bytes.Equal(got, want) {
		t.Fatalf("streamed file differs from the whole write: %d bytes, want %d", len(got), len(want))
	}
	if _, err := seglog.WriteFileFrom(streamed, testMagic, pieces(broken)); !errors.Is(err, broken) {
		t.Fatalf("a body failing midway over a file: err = %v", err)
	}
	if got, _ := os.ReadFile(streamed); !bytes.Equal(got, want) {
		t.Fatal("a failed write changed the file it was to replace")
	}
}

func TestReaderLatches(t *testing.T) {
	bad := errors.New("bad")
	b := seglog.AppendString(seglog.AppendUvarint(seglog.AppendU32(nil, 7), 300), "fixw")
	r := seglog.NewReader(b, bad)
	if r.U32() != 7 || r.Uvarint() != 300 || r.Str() != "fixw" || r.Err() != nil || len(r.Rest()) != 0 {
		t.Fatalf("round trip failed: %v", r.Err())
	}
	if r.Byte() != 0 || r.Err() != bad {
		t.Fatalf("read past the end: err = %v", r.Err())
	}
	// A string whose length overruns the payload fails, and so does
	// everything read after it.
	r = seglog.NewReader(append(seglog.AppendUvarint(nil, 1<<40), 1, 2, 3, 4), bad)
	if r.Str() != "" || r.Err() != bad || r.U32() != 0 || len(r.Rest()) != 0 {
		t.Fatalf("overlong string: err = %v, rest = %v", r.Err(), r.Rest())
	}
}

// TestNanosAreTimes: an instant held as Unix nanoseconds is written as
// the bytes AppendTime writes for it, before the epoch and at the ends
// of the range included, and reads back; an instant the bytes hold but
// nanoseconds cannot fails.
func TestNanosAreTimes(t *testing.T) {
	for _, ns := range []int64{0, 1, -1, 1e9, -1e9 - 1, 907196400123456789, math.MaxInt64, math.MinInt64} {
		want := seglog.AppendTime(nil, time.Time{})
		if ns != 0 {
			want = seglog.AppendTime(nil, time.Unix(0, ns))
		}
		b := seglog.AppendNanos(nil, ns)
		if r := seglog.NewReader(b, errors.New("bad")); !bytes.Equal(b, want) || r.Nanos() != ns || r.Err() != nil {
			t.Errorf("%d: wrote %x, want %x; read back %v", ns, b, want, r.Err())
		}
	}
	for _, at := range []time.Time{time.Unix(math.MaxInt64/1_000_000_000+1, 0), time.Unix(math.MinInt64/1_000_000_000-1, 0)} {
		if r := seglog.NewReader(seglog.AppendTime(nil, at), errors.New("bad")); r.Nanos() != 0 || r.Err() == nil {
			t.Errorf("%v read as nanoseconds", at)
		}
	}
}

// BenchmarkAppend is the cost of one frame with no fsync: one write and
// one allocation, the frame buffer.
func BenchmarkAppend(b *testing.B) {
	l, _, err := seglog.Open(b.TempDir(), testPrefix, testMagic, seglog.DefaultSegmentBytes, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("r"), 512)
	b.SetBytes(int64(seglog.FrameHeader + len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(uint64(i+1), payload); err != nil {
			b.Fatal(err)
		}
	}
}
