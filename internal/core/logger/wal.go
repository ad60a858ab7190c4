// Durable archive: an append-only write-ahead log of delta records.
//
// The paper's Mantra owes its results to six months of continuously
// archived router-table deltas analysed offline; an in-memory delta log
// loses that archive on the first crash. The Store persists every record
// the Logger appends — snapshot deltas, gap markers, per-target metadata
// — as one frame each of a seglog segment log (internal/core/seglog owns
// the framing, the rotation and the open-time repair), with periodic
// full-state checkpoints (checkpoint.go) bounding recovery time. On open
// the Store scans the log, has any torn or corrupt tail truncated, and
// exposes the surviving records for replay; at most the final partial
// record is lost.
//
// What is the WAL's own is policy: the payload encoding (codec.go), and
// sequence numbers that are global across segments and strictly
// increasing — a segment is named by the first one it holds — which is
// what lets recovery stitch checkpoint and WAL tail together and detect
// any stitching error.
package logger

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core/seglog"
)

const (
	segMagic   = "MWAL0003"
	ckptMagic  = "MCKP0007"
	walPrefix  = "wal-"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ck"
)

// StoreOptions configures the durable archive.
type StoreOptions struct {
	// SegmentBytes rotates the active segment once it exceeds this size;
	// 0 means 4 MiB.
	SegmentBytes int64
	// SyncEveryAppend fsyncs after every record. Off, the log is synced on
	// rotation and checkpoint; a crash can then lose the records of the
	// final unsynced cycles but never corrupt earlier ones.
	SyncEveryAppend bool
}

// keepCheckpoints is how many most-recent checkpoints the store retains:
// the older one is the fallback if the newest is damaged.
const keepCheckpoints = 2

func (o StoreOptions) withDefaults() StoreOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = seglog.DefaultSegmentBytes
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
	// UnappliedCounters counts tail deltas whose counter column did not
	// fit (ApplyRecord): a handoff began the chain elsewhere, or damage.
	UnappliedCounters int `json:"unapplied_counters,omitempty"`
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
	// CheckpointBytes is the file size of the newest checkpoint written
	// or loaded.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// Checkpoints counts checkpoints written since open.
	Checkpoints      int       `json:"checkpoints"`
	LastCheckpointAt time.Time `json:"last_checkpoint_at"`
	// Recovery is what the open-time scan found.
	Recovery RecoveryStats `json:"recovery"`
}

// Store is the durable archive: WAL segments plus checkpoints in one
// directory. Safe for concurrent use; appends are serialized.
type Store struct {
	dir  string
	opts StoreOptions

	// mu is held across every append's write and fsync and across a
	// checkpoint's write, rename and directory sync: the frame sequence
	// is decided and made durable under it, so no append lands between
	// a checkpoint's state export and its rename.
	mu       sync.Mutex
	log      *seglog.Log // segment ID = the first sequence number it holds
	seq      uint64      // last assigned sequence number
	stats    StoreStats
	metaSeen map[string]bool

	// recovery payload cached by the open-time scan until Recover or
	// the first append, whichever comes first.
	ckpt *ckptPayload
	tail []walRecord
}

// ErrArchiveVersion refuses a directory holding a WAL segment or
// checkpoint in another format version, which the scan would delete.
var ErrArchiveVersion = errors.New("logger: archive in another format version")

// checkVersions refuses dir if a WAL segment or checkpoint in it starts
// with the store's own tag under another 4-digit version.
func checkVersions(dir string) error {
	for _, f := range [][2]string{{walPrefix + "*.seg", segMagic}, {ckptPrefix + "*" + ckptSuffix, ckptMagic}} {
		paths, _ := filepath.Glob(filepath.Join(dir, f[0]))
		for _, path := range paths {
			if v := header(path); v != f[1] && v[:4] == f[1][:4] && strings.Trim(v[4:], "0123456789") == "" {
				return fmt.Errorf("%w: %s is %s, this build reads %s", ErrArchiveVersion, filepath.Base(path), v, f[1])
			}
		}
	}
	return nil
}

// header returns path's 8-byte header; what a short read leaves of
// "????????" is no version.
func header(path string) string {
	hdr := []byte("????????")
	if f, err := os.Open(path); err == nil {
		_, _ = io.ReadFull(f, hdr)
		f.Close() // read-only header probe; nothing to flush
	}
	return string(hdr)
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
	if err := checkVersions(dir); err != nil {
		return nil, err
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
	st.Segments = len(s.log.Segments())
	for _, seg := range s.log.Segments() {
		st.LiveBytes += seg.Size
	}
	st.LastSeq = s.seq
	return st
}

// Close syncs and closes the active segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

// AppendDelta persists one cycle's delta record for a target: a record
// as the log keeps it (AppendEncoded) is written with its bytes as they
// stand, a decoded one is encoded. The first record of a never-seen
// target is preceded by a metadata record announcing it. fullEntries is the full-snapshot entry count of the
// cycle, preserving the storage-compression baseline across restarts.
func (s *Store) AppendDelta(target string, rec CycleRecord, fullEntries uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.metaSeen[target] {
		if err := s.append(walRecord{Kind: recMeta, Target: target, FirstSeen: rec.At}); err != nil {
			return err
		}
		s.metaSeen[target] = true
	}
	return s.append(walRecord{Kind: recDelta, Target: target, Rec: rec, FullEntries: fullEntries})
}

// AppendGap persists a failed-cycle marker for a target.
func (s *Store) AppendGap(target string, at time.Time, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(walRecord{Kind: recGap, Target: target, At: at, Reason: reason})
}

// append encodes and appends one record; the caller holds s.mu. An
// error is counted and returned and the store keeps going: the next
// append tries again from wherever the log stands.
func (s *Store) append(rec walRecord) error {
	// A store that has appended can no longer be recovered consistently,
	// so the scan's decoded log is of no further use to anyone.
	s.ckpt, s.tail = nil, nil
	rec.Seq = s.seq + 1
	n, err := s.log.Append(rec.Seq, encodePayload(rec))
	if n > 0 {
		s.seq = rec.Seq
		s.stats.AppendedRecords++
		s.stats.AppendedBytes += uint64(n)
	}
	if err != nil {
		s.stats.AppendErrors++
		return fmt.Errorf("logger: wal append: %w", err)
	}
	if s.opts.SyncEveryAppend {
		if err := s.log.Sync(); err != nil {
			s.stats.AppendErrors++
			return fmt.Errorf("logger: wal sync: %w", err)
		}
	}
	return nil
}

func ckptName(seq uint64) string { return seglog.Name(ckptPrefix, seq, ckptSuffix) }
