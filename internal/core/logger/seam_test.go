package logger

import (
	"encoding/binary"

	"repro/internal/core/seglog"
)

// What wal_test.go's sweeps need to walk a segment's frames on their
// own, now that the framing lives in seglog.
const frameHeader = seglog.FrameHeader

func u32at(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }
