// Package seglog is the on-disk layer under the delta WAL, its
// checkpoints and the tsdb block mirror — the one place that knows the
// framing. A log is a directory of segment files named
//
//	<prefix><20-digit ID>.seg
//
// whose fixed width makes name order ID order. A segment is an 8-byte
// magic followed by frames:
//
//	[u32 payload length][u32 CRC32C of payload][payload]
//
// all little-endian. Payloads are opaque here; what a frame means, how a
// segment's ID is chosen and when old segments may go are the caller's
// policy. Open scans the segments in order and repairs them: the first
// frame that is torn, fails its checksum or is rejected by the caller's
// visitor is the tear — the segment is cut back to it and every later
// segment is removed, so at most the tail is lost and what remains is
// always a prefix of what was appended. An atomic single-frame file
// (WriteFileFrom/ReadFile) carries checkpoints in the same framing.
//
// A Log is not safe for concurrent use; its owner serializes calls.
package seglog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	// FrameHeader is the bytes a frame adds to its payload.
	FrameHeader = 8
	// MaxFrame caps a frame's declared length so a corrupted length
	// field cannot trigger a giant allocation.
	MaxFrame = 64 << 20
	// DefaultSegmentBytes is the rotation size both logs default to.
	DefaultSegmentBytes = 4 << 20
	// TempSuffix marks WriteFile's temporary; a file left with it is an
	// aborted write.
	TempSuffix = ".tmp"

	segSuffix = ".seg"
	idDigits  = 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Name is the fixed-width file name of id.
func Name(prefix string, id uint64, suffix string) string {
	return fmt.Sprintf("%s%0*d%s", prefix, idDigits, id, suffix)
}

// List returns the IDs of dir's files named prefix, twenty digits,
// suffix, in ascending order.
func List(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir) // sorted by name, which the fixed width makes ID order
	if err != nil {
		return nil, err
	}
	var ids []uint64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || len(name) != len(prefix)+idDigits+len(suffix) ||
			!strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		if id, err := strconv.ParseUint(name[len(prefix):len(prefix)+idDigits], 10, 64); err == nil {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// Segment describes one segment file of a log.
type Segment struct {
	ID     uint64
	Size   int64
	Frames int
}

// Repair is what Open found wrong and cut away; the zero value is a
// clean log.
type Repair struct {
	// Segment and Defect name the tear: the file and what was wrong at
	// the first bad frame.
	Segment string
	Defect  string
	// TruncatedBytes counts the tear's tail plus every segment after it.
	TruncatedBytes int64
}

// Visitor is handed every valid payload in log order. The payload
// aliases the segment's read buffer, which is not reused. A non-nil
// return rejects the payload: the scan treats its frame as the tear and
// reports the error's text as the defect.
type Visitor func(payload []byte) error

// Log is an open segment log positioned to append.
type Log struct {
	dir, prefix, magic string
	limit              int64

	f    *os.File  // the active segment; nil until an append needs one
	segs []Segment // oldest first; the last one is f's while f is open
}

func (l *Log) path(id uint64) string {
	return filepath.Join(l.dir, Name(l.prefix, id, segSuffix))
}

// walkFrames walks one segment's bytes, handing each valid payload to
// visit. It returns the offset up to which the segment is intact (0
// when not even the magic is), the frames before it, and the first
// defect found ("" when the segment is clean).
func walkFrames(data []byte, magic string, visit Visitor) (valid int64, frames int, defect string) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return 0, 0, "bad segment magic"
	}
	off := len(magic)
	for off < len(data) {
		rest := data[off:]
		if len(rest) < FrameHeader {
			return int64(off), frames, "torn frame header"
		}
		ln := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if ln == 0 || ln > MaxFrame {
			return int64(off), frames, "implausible record length"
		}
		if int(ln) > len(rest)-FrameHeader {
			return int64(off), frames, "torn record payload"
		}
		payload := rest[FrameHeader : FrameHeader+int(ln)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return int64(off), frames, "checksum mismatch"
		}
		if err := visit(payload); err != nil {
			return int64(off), frames, err.Error()
		}
		frames++
		off += FrameHeader + int(ln)
	}
	return int64(len(data)), frames, ""
}

// Scan reads the log under dir without touching it: every valid payload
// up to the first defect goes to visit, and the scan ends there.
func Scan(dir, prefix, magic string, visit Visitor) error {
	ids, err := List(dir, prefix, segSuffix)
	if err != nil {
		return err
	}
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(dir, Name(prefix, id, segSuffix)))
		if err != nil {
			return err
		}
		if _, _, defect := walkFrames(data, magic, visit); defect != "" {
			break
		}
	}
	return nil
}

// Open scans and repairs the log under dir, which must exist, and
// positions it to append. Segments rotate once they reach segmentBytes.
func Open(dir, prefix, magic string, segmentBytes int64, visit Visitor) (*Log, Repair, error) {
	l := &Log{dir: dir, prefix: prefix, magic: magic, limit: segmentBytes}
	var rep Repair
	ids, err := List(dir, prefix, segSuffix)
	if err != nil {
		return nil, rep, fmt.Errorf("seglog: open: %w", err)
	}
	for _, id := range ids {
		path := l.path(id)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, rep, fmt.Errorf("seglog: open: %w", err)
		}
		// Everything after a tear is untrusted, and has to go before an
		// append can create a newer segment behind it.
		var valid int64
		var frames int
		if rep.Defect == "" {
			var defect string
			if valid, frames, defect = walkFrames(data, magic, visit); defect != "" {
				rep.Segment, rep.Defect = filepath.Base(path), defect
			}
		}
		rep.TruncatedBytes += int64(len(data)) - valid
		switch {
		case valid == 0: // not even the header is usable
			err = os.Remove(path)
		case valid < int64(len(data)):
			err = os.Truncate(path, valid)
		}
		if err != nil {
			return nil, rep, fmt.Errorf("seglog: repair: %w", err)
		}
		if valid > 0 {
			l.segs = append(l.segs, Segment{ID: id, Size: valid, Frames: frames})
		}
	}
	// A last segment already at the limit was rotated out by the append
	// that filled it; the next append starts a new one.
	if n := len(l.segs); n > 0 && l.segs[n-1].Size < l.limit {
		f, err := os.OpenFile(l.path(l.segs[n-1].ID), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, rep, fmt.Errorf("seglog: resume segment: %w", err)
		}
		l.f = f
	}
	return l, rep, nil
}

// Segments lists the log's segment files, oldest first. The slice is
// the log's own: read it before the next call and do not modify it.
func (l *Log) Segments() []Segment { return l.segs }

// Append frames payload and writes it with one write. When no segment
// is open the append starts one named id, which must exceed every
// existing segment's ID. A failed write is cut back to the last frame
// boundary and returns 0. Otherwise the frame's size is returned, and a
// non-nil error then means the frame is in the log but the rotation it
// triggered failed to sync or close the segment.
func (l *Log) Append(id uint64, payload []byte) (int, error) {
	if len(payload) == 0 || len(payload) > MaxFrame {
		return 0, fmt.Errorf("seglog: append: %d-byte payload, want 1..%d", len(payload), MaxFrame)
	}
	if l.f == nil {
		if err := l.create(id); err != nil {
			return 0, err
		}
	}
	frame := make([]byte, FrameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[FrameHeader:], payload)

	seg := &l.segs[len(l.segs)-1]
	if _, err := l.f.Write(frame); err != nil {
		_ = l.f.Truncate(seg.Size) // best-effort repair on a path already returning the append error; Open truncates torn tails anyway
		return 0, fmt.Errorf("seglog: append: %w", err)
	}
	seg.Size += int64(len(frame))
	seg.Frames++
	if seg.Size >= l.limit {
		return len(frame), l.Close()
	}
	return len(frame), nil
}

// create starts the segment named id.
func (l *Log) create(id uint64) error {
	if n := len(l.segs); n > 0 && id <= l.segs[n-1].ID {
		return fmt.Errorf("seglog: new segment %d would not sort after segment %d", id, l.segs[n-1].ID)
	}
	f, err := os.OpenFile(l.path(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: new segment: %w", err)
	}
	if _, err := f.Write([]byte(l.magic)); err != nil {
		f.Close() // abandoning a segment whose header write failed; that error is already returned
		return fmt.Errorf("seglog: new segment: %w", err)
	}
	l.f = f
	l.segs = append(l.segs, Segment{ID: id, Size: int64(len(l.magic))})
	return nil
}

// Sync flushes the open segment to stable storage.
func (l *Log) Sync() error {
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// Close syncs and closes the open segment, which makes closing — and
// the rotation that is a Close — a durability point. The log stays
// usable: the next append starts a new segment.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Prune removes the closed segments drop selects. One that cannot be
// removed stays listed, for the next Prune to retry; a survivor is only
// re-scanned on restart.
func (l *Log) Prune(drop func(Segment) bool) {
	closed := len(l.segs)
	if l.f != nil {
		closed--
	}
	kept := l.segs[:0]
	for i, seg := range l.segs {
		if i < closed && drop(seg) && os.Remove(l.path(seg.ID)) == nil {
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
}

// WriteFile atomically replaces path with magic and one frame holding
// payload; it is WriteFileFrom with a body that writes payload once.
func WriteFile(path, magic string, payload []byte) error {
	_, err := WriteFileFrom(path, magic, func(w io.Writer) error { _, err := w.Write(payload); return err })
	return err
}

// frameWriter passes a frame's payload through to its file, counting
// the payload's length and checksum as it goes.
type frameWriter struct {
	f   *os.File
	n   int64
	sum uint32
}

func (w *frameWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.n += int64(n)
	w.sum = crc32.Update(w.sum, castagnoli, p[:n])
	return n, err
}

// WriteFileFrom atomically replaces path with magic and one frame whose
// payload body writes, streamed to the file as body writes it: a zeroed
// header, the payload, the header at offset 0 once the payload's length
// and checksum are known, then fsync, rename and a directory fsync. It
// returns the payload's length. An error from body or from any step
// leaves path as it was; the temporary it leaves is an aborted write.
func WriteFileFrom(path, magic string, body func(io.Writer) error) (int64, error) {
	hdr := make([]byte, len(magic)+FrameHeader)
	tmp := path + TempSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	w := &frameWriter{f: f}
	_, err = f.Write(hdr)
	if err == nil {
		err = body(w)
	}
	if err == nil {
		copy(hdr, magic)
		binary.LittleEndian.PutUint32(hdr[len(magic):], uint32(w.n))
		binary.LittleEndian.PutUint32(hdr[len(magic)+4:], w.sum)
		_, err = f.WriteAt(hdr, 0)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return 0, err
	}
	// The rename is not durable until its directory entry is; best
	// effort where directories cannot be synced.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()  // documented best-effort: directory fsync is unsupported on some platforms
		_ = d.Close() // read-only directory handle; nothing to flush
	}
	return w.n, nil
}

// ReadFile reads a file WriteFile wrote and returns its payload after
// checking the magic, the length and the checksum.
func ReadFile(path, magic string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(magic)+FrameHeader || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("seglog: %s: bad magic", filepath.Base(path))
	}
	hdr, body := data[len(magic):len(magic)+FrameHeader], data[len(magic)+FrameHeader:]
	if uint64(binary.LittleEndian.Uint32(hdr)) != uint64(len(body)) {
		return nil, fmt.Errorf("seglog: %s: truncated", filepath.Base(path))
	}
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("seglog: %s: checksum mismatch", filepath.Base(path))
	}
	return body, nil
}
