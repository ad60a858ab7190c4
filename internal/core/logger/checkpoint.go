// Checkpoints and restart recovery for the durable archive.
//
// A checkpoint is one atomic framed file (seglog.WriteFile) holding the
// full Logger state plus an opaque caller payload (the cycle core stores
// every target's processor state and health row there), stamped with
// the WAL sequence number it covers. Its body is encoded by hand with
// the WAL's own primitives, records included (appendDelta), so equal
// states write equal bytes. Recovery loads the newest valid checkpoint —
// falling back to an older one if the newest is damaged — and replays
// only the WAL records past it. Segments wholly covered by every
// retained checkpoint are pruned.
package logger

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core/seglog"
	"repro/internal/core/tables"
)

// ckptPayload is a decoded checkpoint.
type ckptPayload struct {
	// Seq is the last WAL sequence number the checkpoint covers.
	Seq uint64
	// At is the checkpoint instant (cycle clock, not wall clock).
	At time.Time
	// Log is the complete Logger state, rebuilt record by record.
	Log *Logger
	// Extra is an opaque caller payload restored verbatim on recovery.
	Extra []byte
	// Size is the checkpoint file's length in bytes.
	Size int64
}

// ErrBadCheckpoint reports a checkpoint body that passed its checksum
// but does not decode.
var ErrBadCheckpoint = errors.New("logger: malformed checkpoint")

// appendCheckpoint encodes a checkpoint body: seq and at, then for each
// target in Targets order its name, full-entry count, gaps and records,
// then extra to the end.
func appendCheckpoint(b []byte, seq uint64, at time.Time, l *Logger, extra []byte) []byte {
	b = seglog.AppendUvarint(b, seq)
	b = seglog.AppendTime(b, at)
	names := l.Targets()
	b = seglog.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		tl := l.targets[name]
		b = seglog.AppendString(b, name)
		b = seglog.AppendUvarint(b, tl.fullEntries)
		b = seglog.AppendUvarint(b, uint64(len(tl.gaps)))
		for _, g := range tl.gaps {
			b = seglog.AppendTime(b, g.At)
			b = seglog.AppendString(b, g.Reason)
		}
		b = seglog.AppendUvarint(b, uint64(len(tl.Records)))
		for _, rec := range tl.Records {
			b = appendDelta(b, rec, 0)
		}
	}
	return append(b, extra...)
}

// decodeCheckpoint rebuilds a Logger from a checkpoint body by applying
// its records in order, as the live log took them; a record whose
// counter column does not fit the table is kept all the same, as
// ApplyRecord keeps it. Extra is a slice of b.
func decodeCheckpoint(b []byte) (*ckptPayload, error) {
	r := byteReader{seglog.NewReader(b, ErrBadCheckpoint)}
	pay := &ckptPayload{Seq: r.Uvarint(), At: r.Time(), Log: New()}
	for n := r.Count(4); n > 0 && r.Err() == nil; n-- {
		name := r.Str()
		if pay.Log.targets[name] != nil {
			r.Fail()
			break
		}
		tl := pay.Log.target(name)
		full := r.Uvarint()
		tl.gaps = seglog.ReadList(r.Reader, 2, func() GapMark { return GapMark{At: r.Time(), Reason: r.Str()} })
		for m := r.Count(9); m > 0 && r.Err() == nil; m-- {
			if rec, _ := r.delta(); r.Err() == nil {
				_ = pay.Log.ApplyRecord(name, rec, 0) // a misfit is kept, as the live log kept it
			}
		}
		tl.fullEntries = full
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	pay.Extra = r.Rest()
	return pay, nil
}

// ReplayEvent is one WAL-tail record recovery hands back for re-ingestion
// by downstream consumers (series, anomalies, health).
type ReplayEvent struct {
	Target string
	At     time.Time
	// Snapshot is the full materialized table state as of this cycle —
	// what the original Ingest saw — nil for gap events. The MSDP/MBGP
	// tables are not delta-logged, so their magnitudes travel separately
	// in SACache and MBGPRoutes.
	Snapshot   *tables.Snapshot
	SACache    int
	MBGPRoutes int
	// Gap marks a failed cycle; Reason carries its recorded error.
	Gap    bool
	Reason string
}

// RecoveredArchive is the result of replaying checkpoint plus WAL tail.
type RecoveredArchive struct {
	// Logger holds the fully rebuilt delta log.
	Logger *Logger
	// Extra is the opaque payload of the loaded checkpoint, nil without one.
	Extra []byte
	// Events lists the WAL-tail records past the checkpoint, in log order.
	Events []ReplayEvent
	// CheckpointAt is the instant of the loaded checkpoint (zero without one).
	CheckpointAt time.Time
	Stats        RecoveryStats
}

// Recover rebuilds the archived state found by the open-time scan: the
// checkpoint's Logger plus every surviving WAL-tail record applied in log
// order. Each applied delta also yields a materialized snapshot so the
// caller can re-ingest the tail cycles into its own consumers. Recover
// may be called once per Open, before the first append; either releases
// the cached scan results.
func (s *Store) Recover() *RecoveredArchive {
	s.mu.Lock()
	defer s.mu.Unlock()
	ra := &RecoveredArchive{Stats: s.stats.Recovery}
	if s.ckpt != nil {
		ra.Logger = s.ckpt.Log
		ra.Extra = s.ckpt.Extra
		ra.CheckpointAt = s.ckpt.At
	} else {
		ra.Logger = New()
	}
	for _, r := range s.tail {
		switch r.Kind {
		case recDelta:
			if ra.Logger.ApplyRecord(r.Target, r.Rec, r.FullEntries) != nil {
				ra.Stats.UnappliedCounters++
			}
			sn, _ := ra.Logger.Materialized(r.Target)
			ra.Events = append(ra.Events, ReplayEvent{
				Target:     r.Target,
				At:         r.Rec.At,
				Snapshot:   sn,
				SACache:    r.Rec.SACache,
				MBGPRoutes: r.Rec.MBGPRoutes,
			})
		case recGap:
			ra.Logger.MarkGap(r.Target, r.At, r.Reason)
			ra.Events = append(ra.Events, ReplayEvent{Target: r.Target, At: r.At, Gap: true, Reason: r.Reason})
		case recMeta:
			// Target announced but no cycle survived; materialize it empty.
			ra.Logger.target(r.Target)
		}
	}
	s.ckpt = nil
	s.tail = nil
	return ra
}

// WriteCheckpoint atomically persists the full state of l plus the
// caller's opaque extra payload, covering every record appended so far.
// l must reflect exactly the records the store has seen — the monitor
// guarantees this by checkpointing between cycles. After a successful
// write, checkpoints beyond the retention count and segments covered by
// every retained checkpoint are pruned.
func (s *Store) WriteCheckpoint(l *Logger, extra []byte, now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Records covered by the checkpoint may be pruned, so they must be
	// durable first.
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("logger: checkpoint: sync wal: %w", err)
	}
	// A fresh buffer a little larger than the last checkpoint: the
	// history only grows, and one that outlived the write would hold a
	// checkpoint's worth of heap between writes.
	hint := s.stats.CheckpointBytes
	body := appendCheckpoint(make([]byte, 0, hint+hint/8), s.seq, now, l, extra)
	if err := seglog.WriteFile(filepath.Join(s.dir, ckptName(s.seq)), ckptMagic, body); err != nil {
		return fmt.Errorf("logger: checkpoint: %w", err)
	}
	s.stats.CheckpointBytes = ckptSize(body)
	s.stats.Checkpoints++
	s.stats.CheckpointSeq = s.seq
	s.stats.LastCheckpointAt = now
	s.prune()
	return nil
}

// prune removes checkpoints beyond the retention count and segments whose
// records are covered by every retained checkpoint; the caller holds s.mu.
func (s *Store) prune() {
	ckpts, err := seglog.List(s.dir, ckptPrefix, ckptSuffix)
	if err != nil {
		return
	}
	if len(ckpts) > keepCheckpoints {
		for _, seq := range ckpts[:len(ckpts)-keepCheckpoints] {
			_ = os.Remove(filepath.Join(s.dir, ckptName(seq))) // retention pruning is best-effort; a surviving file is retried next prune and never corrupts state
		}
		ckpts = ckpts[len(ckpts)-keepCheckpoints:]
	}
	if len(ckpts) == 0 {
		return
	}
	// Segments are only safe to drop below the OLDEST retained checkpoint:
	// if the newest is damaged, recovery falls back and needs the tail
	// from the older one. A segment holds the sequence numbers ID to
	// ID+Frames-1.
	s.log.Prune(func(seg seglog.Segment) bool { return seg.ID+uint64(seg.Frames)-1 <= ckpts[0] })
}

// ckptSize is the length of the file that holds body.
func ckptSize(body []byte) int64 { return int64(len(ckptMagic) + seglog.FrameHeader + len(body)) }

// loadCheckpoint reads and decodes one checkpoint file.
func loadCheckpoint(path string) (*ckptPayload, error) {
	body, err := seglog.ReadFile(path, ckptMagic)
	if err != nil {
		return nil, err
	}
	pay, err := decodeCheckpoint(body)
	if err != nil {
		return nil, fmt.Errorf("logger: checkpoint %s: %w", filepath.Base(path), err)
	}
	pay.Size = ckptSize(body)
	return pay, nil
}

// What the scan's visitor rejects a checksummed frame for; the text is
// the RecoveryStats.TailError an operator reads.
var (
	errUndecodable   = errors.New("undecodable record")
	errDiscontinuity = errors.New("sequence discontinuity")
)

// scan is the open-time pass: locate the newest valid checkpoint, walk
// every segment record by record, truncate a torn or corrupt tail at the
// last valid record, and cache what survives for Recover.
func (s *Store) scan() error {
	// Leftover temp files are aborted checkpoint writes.
	tmpSuffix := ckptSuffix + seglog.TempSuffix
	if tmps, err := seglog.List(s.dir, ckptPrefix, tmpSuffix); err == nil {
		for _, seq := range tmps {
			_ = os.Remove(filepath.Join(s.dir, seglog.Name(ckptPrefix, seq, tmpSuffix))) // leftover temp cleanup is best-effort; a survivor is ignored by recovery and retried next open
		}
	}

	// Newest valid checkpoint wins; damaged ones are counted and skipped.
	ckpts, err := seglog.List(s.dir, ckptPrefix, ckptSuffix)
	if err != nil {
		return fmt.Errorf("logger: scan: %w", err)
	}
	var ckptSeq uint64
	for i := len(ckpts) - 1; i >= 0; i-- {
		pay, err := loadCheckpoint(filepath.Join(s.dir, ckptName(ckpts[i])))
		if err != nil {
			s.stats.Recovery.CorruptCheckpoints++
			continue
		}
		s.ckpt = pay
		ckptSeq = pay.Seq
		s.stats.Recovery.CheckpointLoaded = true
		s.stats.Recovery.CheckpointSeq = pay.Seq
		s.stats.CheckpointSeq = pay.Seq
		s.stats.LastCheckpointAt = pay.At
		s.stats.CheckpointBytes = pay.Size
		for name := range pay.Log.targets {
			s.metaSeen[name] = true
		}
		break
	}

	// A frame that passes its checksum can still end the log: a payload
	// that does not decode, or one out of sequence.
	var prev uint64
	log, rep, err := seglog.Open(s.dir, walPrefix, segMagic, s.opts.SegmentBytes, func(payload []byte) error {
		rec, err := decodePayload(payload)
		if err != nil {
			return errUndecodable
		}
		if rec.Seq == 0 || (prev != 0 && rec.Seq != prev+1) {
			return errDiscontinuity
		}
		prev = rec.Seq
		if rec.Seq <= ckptSeq {
			s.stats.Recovery.RecordsSkipped++
		} else {
			s.tail = append(s.tail, rec)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("logger: scan: %w", err)
	}
	s.log = log
	if rep.Defect != "" {
		s.stats.Recovery.TornTail = true
		s.stats.Recovery.TailError = rep.Segment + ": " + rep.Defect
		s.stats.Recovery.TruncatedBytes = rep.TruncatedBytes
	}

	// A hole between checkpoint and tail means the tail cannot be applied.
	if len(s.tail) > 0 && s.ckpt != nil && s.tail[0].Seq > ckptSeq+1 {
		s.stats.Recovery.TornTail = true
		s.stats.Recovery.TailError = fmt.Sprintf(
			"wal resumes at seq %d past checkpoint seq %d", s.tail[0].Seq, ckptSeq)
		s.stats.Recovery.RecordsSkipped += len(s.tail)
		s.tail = nil
	}
	s.stats.Recovery.RecordsReplayed = len(s.tail)
	for _, r := range s.tail {
		if r.Kind == recMeta || r.Kind == recDelta {
			s.metaSeen[r.Target] = true
		}
	}

	s.seq = prev
	if ckptSeq > s.seq {
		s.seq = ckptSeq
	}
	return nil
}
