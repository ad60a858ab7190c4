package seglog_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core/logger"
	"repro/internal/core/seglog"
	"repro/internal/core/tsdb"
)

// realWALSegment and realMirrorSegment return the bytes of a segment
// the two callers of this package actually write.
func realWALSegment(f *testing.F) []byte {
	dir := f.TempDir()
	s, err := logger.OpenStore(dir, logger.StoreOptions{})
	if err != nil {
		f.Fatal(err)
	}
	at := time.Date(1999, 2, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		at = at.Add(30 * time.Minute)
		if err := s.AppendDelta("fixw", logger.CycleRecord{At: at, SACache: i, MBGPRoutes: 40 + i}, 7); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.AppendGap("fixw", at.Add(30*time.Minute), "session dropped"); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	return onlySegment(f, dir, "wal-")
}

func realMirrorSegment(f *testing.F) []byte {
	dir := f.TempDir()
	st := tsdb.New()
	if err := st.AttachDir(dir, false); err != nil {
		f.Fatal(err)
	}
	at := time.Date(1999, 2, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	for i := 0; i < 2*tsdb.BlockPoints; i++ {
		st.Append("fixw", "routes", at+int64(i)*int64(30*time.Minute), float64(6000+i%17))
	}
	if err := st.CloseDir(); err != nil {
		f.Fatal(err)
	}
	return onlySegment(f, dir, "tsdb-")
}

func onlySegment(f *testing.F, dir, prefix string) []byte {
	ids, err := seglog.List(dir, prefix, ".seg")
	if err != nil || len(ids) != 1 {
		f.Fatalf("segments under %s = %v (%v), want one", dir, ids, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, seglog.Name(prefix, ids[0], ".seg")))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzScan feeds arbitrary bytes to the frame scanner under both
// callers' magics. It must not panic; every payload it hands out must
// be a slice of the input no longer than the frame cap (so a corrupted
// length field allocates nothing); and the prefix it calls intact must
// scan clean to the same frames.
func FuzzScan(f *testing.F) {
	wal, mirror := realWALSegment(f), realMirrorSegment(f)
	f.Add(wal)
	f.Add(mirror)
	f.Add(wal[:len(wal)-3])
	f.Add(append(append([]byte(nil), mirror...), 0xde, 0xad, 0xbe, 0xef, 1, 2, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, magic := range []string{"MWAL0002", "MTSB0001"} {
			next := len(magic) + seglog.FrameHeader
			valid, frames, defect := seglog.WalkFrames(data, magic, func(p []byte) error {
				if len(p) == 0 || len(p) > seglog.MaxFrame || next+len(p) > len(data) || &p[0] != &data[next] {
					t.Fatalf("payload of %d bytes is not the input at offset %d", len(p), next)
				}
				next += len(p) + seglog.FrameHeader
				return nil
			})
			switch {
			case valid == 0:
				if frames != 0 || defect == "" {
					t.Fatalf("nothing valid, yet frames = %d, defect = %q", frames, defect)
				}
				continue
			case valid != int64(next-seglog.FrameHeader) || valid > int64(len(data)):
				t.Fatalf("valid = %d of %d bytes, the %d frames end at %d", valid, len(data), frames, next-seglog.FrameHeader)
			case (defect == "") != (valid == int64(len(data))):
				t.Fatalf("valid = %d of %d bytes with defect %q", valid, len(data), defect)
			}
			v2, f2, d2 := seglog.WalkFrames(data[:valid], magic, func([]byte) error { return nil })
			if v2 != valid || f2 != frames || d2 != "" {
				t.Fatalf("rescan of the valid prefix: %d bytes, %d frames, %q; want %d, %d, clean", v2, f2, d2, valid, frames)
			}
		}
	})
}
