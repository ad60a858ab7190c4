// Durable archive: an append-only write-ahead log of delta records.
//
// The paper's Mantra owes its results to six months of continuously
// archived router-table deltas analysed offline; an in-memory delta log
// loses that archive on the first crash. The Store persists every record
// the Logger appends — snapshot deltas, gap markers, per-target metadata
// — into length-prefixed, CRC32C-checksummed frames across rotated
// segment files, with periodic full-state checkpoints (checkpoint.go)
// bounding recovery time. On open the Store scans the log, truncates any
// torn or corrupt tail it finds, and exposes the surviving records for
// replay; at most the final partial record is lost.
//
// On-disk frame, after the 8-byte segment magic:
//
//	[u32 payload length][u32 CRC32C of payload][payload]
//
// Payload encoding is in codec.go. Sequence numbers are global across
// segments and strictly increasing, which is what lets recovery stitch
// checkpoint and WAL tail together and detect any stitching error.
package logger

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	segMagic            = "MWAL0002"
	ckptMagic           = "MCKP0003"
	defaultSegmentBytes = 4 << 20
	// maxRecordBytes caps a frame's declared length so a corrupted length
	// field cannot trigger a giant allocation.
	maxRecordBytes = 64 << 20
	frameHeader    = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// StoreOptions configures the durable archive.
type StoreOptions struct {
	// SegmentBytes rotates the active segment once it exceeds this size;
	// 0 means 4 MiB.
	SegmentBytes int64
	// SyncEveryAppend fsyncs after every record. Off, the log is synced on
	// rotation and checkpoint; a crash can then lose the records of the
	// final unsynced cycles but never corrupt earlier ones.
	SyncEveryAppend bool
	// KeepCheckpoints retains this many most-recent checkpoints (the older
	// ones are fallbacks if the newest is damaged); 0 means 2.
	KeepCheckpoints int
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.KeepCheckpoints <= 0 {
		o.KeepCheckpoints = 2
	}
	return o
}

// RecoveryStats reports what the open-time scan found and repaired.
type RecoveryStats struct {
	// CheckpointLoaded is true when a valid checkpoint seeded recovery.
	CheckpointLoaded bool `json:"checkpoint_loaded"`
	// CheckpointSeq is the WAL position the loaded checkpoint covers.
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// CorruptCheckpoints counts checkpoint files that failed validation.
	CorruptCheckpoints int `json:"corrupt_checkpoints,omitempty"`
	// RecordsReplayed is the WAL-tail records applied after the checkpoint.
	RecordsReplayed int `json:"records_replayed"`
	// RecordsSkipped is the WAL records already covered by the checkpoint.
	RecordsSkipped int `json:"records_skipped,omitempty"`
	// TornTail is true when a torn or corrupt tail was detected; the log
	// was truncated at the last valid record.
	TornTail bool `json:"torn_tail,omitempty"`
	// TruncatedBytes is how many bytes the repair discarded.
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// TailError describes the defect that caused the truncation.
	TailError string `json:"tail_error,omitempty"`
}

// StoreStats is the operator-facing view of the archive.
type StoreStats struct {
	Dir      string `json:"dir"`
	Segments int    `json:"segments"`
	// LiveBytes is the total size of all segment files.
	LiveBytes int64 `json:"live_bytes"`
	// AppendedRecords / AppendedBytes count appends since open.
	AppendedRecords uint64 `json:"appended_records"`
	AppendedBytes   uint64 `json:"appended_bytes"`
	AppendErrors    uint64 `json:"append_errors,omitempty"`
	// LastSeq is the sequence number of the newest durable record.
	LastSeq uint64 `json:"last_seq"`
	// CheckpointSeq is the WAL position of the newest checkpoint.
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// Checkpoints counts checkpoints written since open.
	Checkpoints      int       `json:"checkpoints"`
	LastCheckpointAt time.Time `json:"last_checkpoint_at"`
	// Recovery is what the open-time scan found.
	Recovery RecoveryStats `json:"recovery"`
}

// segmentInfo tracks one closed or active segment file.
type segmentInfo struct {
	name  string
	first uint64 // first sequence number the segment may contain
	last  uint64 // last sequence number written (0 while unknown/empty)
	size  int64
}

// Store is the durable archive: WAL segments plus checkpoints in one
// directory. Safe for concurrent use; appends are serialized.
type Store struct {
	dir  string
	opts StoreOptions

	mu       sync.Mutex
	seg      *os.File // active segment, opened for append
	segInfo  *segmentInfo
	segments []segmentInfo // closed segments, oldest first
	seq      uint64        // last assigned sequence number
	stats    StoreStats
	metaSeen map[string]bool

	// recovery payload cached by the open-time scan until Recover.
	ckpt *ckptPayload
	tail []walRecord
}

// OpenStore opens (or creates) the archive in dir, scanning and repairing
// the log: the newest valid checkpoint is located, every segment is
// CRC-verified record by record, and a torn or corrupt tail is truncated
// at the last valid record. The surviving state is retrieved with
// Recover; appends continue from the repaired position.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("logger: open store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, metaSeen: make(map[string]bool)}
	s.stats.Dir = dir
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// HasData reports whether the scan found any durable state to resume from.
func (s *Store) HasData() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckpt != nil || len(s.tail) > 0 || s.seq > 0
}

// Stats returns a snapshot of the archive's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Segments = len(s.segments)
	st.LiveBytes = 0
	for _, seg := range s.segments {
		st.LiveBytes += seg.size
	}
	if s.segInfo != nil {
		st.Segments++
		st.LiveBytes += s.segInfo.size
	}
	st.LastSeq = s.seq
	return st
}

// Close syncs and closes the active segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	err := s.seg.Sync() //mantralint:allow lockheld fsync under s.mu is the durability contract: the single-writer lock serializes append+sync so readers never see a segment ahead of stable storage
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	s.seg = nil
	return err
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	return s.seg.Sync() //mantralint:allow lockheld fsync under s.mu is the durability contract: the single-writer lock serializes append+sync so readers never see a segment ahead of stable storage
}

// AppendDelta persists one cycle's delta record for a target. The first
// record of a never-seen target is preceded by a metadata record
// announcing it. fullEntries is the full-snapshot entry count of the
// cycle, preserving the storage-compression baseline across restarts.
func (s *Store) AppendDelta(target string, rec CycleRecord, fullEntries uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.metaSeen[target] {
		//mantralint:allow lockheld append writes+fsyncs under s.mu by design: WAL ordering and the byte-identical-replay guarantee require the frame sequence to be decided under the lock
		if err := s.append(walRecord{Kind: recMeta, Target: target, FirstSeen: rec.At}); err != nil {
			return err
		}
		s.metaSeen[target] = true
	}
	//mantralint:allow lockheld append writes+fsyncs under s.mu by design: WAL ordering and the byte-identical-replay guarantee require the frame sequence to be decided under the lock
	return s.append(walRecord{Kind: recDelta, Target: target, Rec: rec, FullEntries: fullEntries})
}

// AppendGap persists a failed-cycle marker for a target.
func (s *Store) AppendGap(target string, at time.Time, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//mantralint:allow lockheld append writes+fsyncs under s.mu by design: WAL ordering and the byte-identical-replay guarantee require the frame sequence to be decided under the lock
	return s.append(walRecord{Kind: recGap, Target: target, At: at, Reason: reason})
}

// append frames and writes one record; the caller holds s.mu.
//
// The budget covers the two error-path fmt.Errorf wraps; the frame
// buffer itself is the one deliberate per-record allocation.
//
//mantra:hotpath budget=2
//mantra:sink serialization
func (s *Store) append(rec walRecord) error {
	if s.seg == nil {
		if err := s.openSegment(s.seq + 1); err != nil {
			s.stats.AppendErrors++
			return err
		}
	}
	rec.Seq = s.seq + 1
	payload := encodePayload(rec)
	frame := make([]byte, frameHeader+len(payload))
	putU32(frame[0:], uint32(len(payload)))
	putU32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)

	if _, err := s.seg.Write(frame); err != nil {
		// Best effort: cut the file back to the last whole record so a
		// half-written frame does not poison the log.
		_ = s.seg.Truncate(s.segInfo.size) //mantralint:allow walerr best-effort repair on a path already returning the append error; scan truncates torn tails anyway
		s.stats.AppendErrors++
		return fmt.Errorf("logger: wal append: %w", err)
	}
	s.seq = rec.Seq
	s.segInfo.size += int64(len(frame))
	s.segInfo.last = rec.Seq
	s.stats.AppendedRecords++
	s.stats.AppendedBytes += uint64(len(frame))
	if s.opts.SyncEveryAppend {
		if err := s.seg.Sync(); err != nil {
			s.stats.AppendErrors++
			return fmt.Errorf("logger: wal sync: %w", err)
		}
	}
	if s.segInfo.size >= s.opts.SegmentBytes {
		return s.rotate()
	}
	return nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

//mantra:hotpath budget=1
func segmentName(first uint64) string { return fmt.Sprintf("wal-%020d.seg", first) }
func ckptName(seq uint64) string      { return fmt.Sprintf("ckpt-%020d.ck", seq) }

// openSegment creates a fresh segment whose first record will carry seq
// first; the caller holds s.mu.
//
//mantra:hotpath budget=3
func (s *Store) openSegment(first uint64) error {
	path := filepath.Join(s.dir, segmentName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("logger: new segment: %w", err)
	}
	//mantralint:allow waltaint the segment magic is the file header that framing is anchored to; it is fixed bytes, not archive payload
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close() //mantralint:allow walerr abandoning a segment whose header write failed; that error is already returned
		return fmt.Errorf("logger: new segment: %w", err)
	}
	s.seg = f
	s.segInfo = &segmentInfo{name: segmentName(first), first: first, size: int64(len(segMagic))}
	return nil
}

// rotate closes the active segment (synced, so rotation is a durability
// point) and retires it to the closed list; the caller holds s.mu.
//
//mantra:hotpath budget=1
func (s *Store) rotate() error {
	if s.seg == nil {
		return nil
	}
	err := s.seg.Sync()
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	s.segments = append(s.segments, *s.segInfo)
	s.seg = nil
	s.segInfo = nil
	if err != nil {
		return fmt.Errorf("logger: rotate: %w", err)
	}
	return nil
}

// resumeSegment reopens the newest scanned segment for appending; the
// caller holds s.mu and has already repaired the file.
func (s *Store) resumeSegment(info segmentInfo) error {
	f, err := os.OpenFile(filepath.Join(s.dir, info.name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("logger: resume segment: %w", err)
	}
	s.seg = f
	cp := info
	s.segInfo = &cp
	return nil
}

// listFiles returns dir entries with a prefix/suffix, sorted by name
// (which is sorted by sequence thanks to fixed-width naming).
func (s *Store) listFiles(prefix, suffix string) ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}
