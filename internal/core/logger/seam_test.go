package logger

import (
	"bytes"
	"encoding/binary"
	"time"

	"repro/internal/core/seglog"
)

// What wal_test.go's sweeps need to walk a segment's frames on their
// own, now that the framing lives in seglog.
const frameHeader = seglog.FrameHeader

func u32at(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }

// appendCheckpoint appends to b the checkpoint body writeCheckpoint
// streams to a file.
func appendCheckpoint(b []byte, seq uint64, at time.Time, l *Logger, extra []byte) []byte {
	buf := bytes.NewBuffer(b)
	_ = writeCheckpoint(buf, seq, at, l, extra) // a bytes.Buffer's writes do not fail
	return buf.Bytes()
}
