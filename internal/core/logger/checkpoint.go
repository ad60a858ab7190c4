// Checkpoints and restart recovery for the durable archive.
//
// A checkpoint is one atomic framed file (seglog.WriteFile) holding the
// gob-encoded full Logger state plus an opaque caller payload (the
// monitor stores its processor series, stability trackers and health
// ledger there), stamped with the WAL sequence number it covers. Recovery
// loads the newest valid checkpoint — falling back to an older one if the
// newest is damaged — and replays only the WAL records past it. Segments
// wholly covered by every retained checkpoint are pruned.
package logger

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core/seglog"
	"repro/internal/core/tables"
)

// ckptPayload is the serialized checkpoint contents.
type ckptPayload struct {
	// Seq is the last WAL sequence number the checkpoint covers.
	Seq uint64
	// At is the checkpoint instant (cycle clock, not wall clock).
	At time.Time
	// State is the complete Logger state.
	State *State
	// Extra is an opaque caller payload restored verbatim on recovery.
	Extra []byte
}

// ReplayEvent is one WAL-tail record recovery hands back for re-ingestion
// by downstream consumers (series, stability, health).
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
	// Routes is the record's route delta, what the live Log stage drove
	// the target's stability tracker with.
	Routes RouteDelta
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
		ra.Logger = FromState(s.ckpt.State)
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
				Routes:     r.Rec.Routes,
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
//
//mantra:sink serialization
func (s *Store) WriteCheckpoint(l *Logger, extra []byte, now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Records covered by the checkpoint may be pruned, so they must be
	// durable first.
	//mantralint:allow lockheld fsync under s.mu is the durability contract: the single-writer lock serializes append+sync so readers never see a segment ahead of stable storage
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("logger: checkpoint: sync wal: %w", err)
	}
	pay := ckptPayload{Seq: s.seq, At: now, State: l.ExportState(), Extra: extra}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&pay); err != nil {
		return fmt.Errorf("logger: checkpoint: encode: %w", err)
	}
	//mantralint:allow lockheld checkpoint durability: the tmp-file write+fsync, the rename and the directory fsync must complete under s.mu so no append lands between the state export and the rename
	if err := seglog.WriteFile(filepath.Join(s.dir, ckptName(pay.Seq)), ckptMagic, body.Bytes()); err != nil {
		return fmt.Errorf("logger: checkpoint: %w", err)
	}
	s.stats.Checkpoints++
	s.stats.CheckpointSeq = pay.Seq
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
	if keep := s.opts.KeepCheckpoints; len(ckpts) > keep {
		for _, seq := range ckpts[:len(ckpts)-keep] {
			_ = os.Remove(filepath.Join(s.dir, ckptName(seq))) //mantralint:allow walerr retention pruning is best-effort; a surviving file is retried next prune and never corrupts state
		}
		ckpts = ckpts[len(ckpts)-keep:]
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

// loadCheckpoint reads and validates one checkpoint file.
func loadCheckpoint(path string) (*ckptPayload, error) {
	body, err := seglog.ReadFile(path, ckptMagic)
	if err != nil {
		return nil, err
	}
	var pay ckptPayload
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&pay); err != nil {
		return nil, fmt.Errorf("logger: checkpoint %s: decode: %w", filepath.Base(path), err)
	}
	return &pay, nil
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
			_ = os.Remove(filepath.Join(s.dir, seglog.Name(ckptPrefix, seq, tmpSuffix))) //mantralint:allow walerr leftover temp cleanup is best-effort; a survivor is ignored by recovery and retried next open
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
		break
	}
	if s.ckpt != nil {
		for name := range s.ckpt.State.Targets {
			s.metaSeen[name] = true
		}
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
