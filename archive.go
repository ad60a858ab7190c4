package mantra

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core/cycle"
	"repro/internal/core/logger"
)

// ErrArchiveExists reports an EnableArchive call with Resume unset against
// a directory that already holds archive data — refusing is the safe
// default; an operator must opt into resuming (or point at a fresh
// directory) rather than silently shadowing months of collected history.
var ErrArchiveExists = errors.New("mantra: archive directory has data; set Resume to recover it")

// ArchiveConfig configures the durable archive behind a monitor.
type ArchiveConfig struct {
	// Dir is the archive directory (WAL segments plus checkpoints).
	Dir string
	// CheckpointEvery writes a full-state checkpoint after this many
	// cycles; 0 means 12 (six hours at the paper's 30-minute cadence).
	CheckpointEvery int
	// SegmentBytes and SyncEveryAppend pass through to the store; see
	// logger.StoreOptions.
	SegmentBytes    int64
	SyncEveryAppend bool
	// Resume recovers existing archive data into the monitor. Without it,
	// a directory that already has data is an error.
	Resume bool
}

// RecoveryReport summarizes what EnableArchive restored.
type RecoveryReport = cycle.RecoveryReport

// ArchiveStatus is the operator view served at /archive.
type ArchiveStatus struct {
	Store logger.StoreStats `json:"store"`
	// Recovery is the startup report, nil when the archive started fresh.
	Recovery *RecoveryReport `json:"recovery,omitempty"`
	// LastAppendError is the most recent archive write failure; appends
	// never abort a cycle, they degrade to in-memory-only with this note.
	LastAppendError string `json:"last_append_error,omitempty"`
	// MirrorError is the most recent tsdb block-mirror write failure;
	// like WAL appends, mirror writes degrade rather than abort — the
	// in-memory store stays authoritative and the next attach reconciles.
	MirrorError string `json:"mirror_error,omitempty"`
}

// archiveState is the monitor's archive bookkeeping; the store itself
// is the core's, whose Commit writes the cycle's frames to it.
type archiveState struct {
	checkpointEvery int
	cyclesSince     int
	report          *RecoveryReport
	lastAppendErr   string
}

// EnableArchive attaches a durable archive to the monitor: every delta
// and gap marker the monitor logs is persisted to a checksummed
// write-ahead log under cfg.Dir, with periodic full-state checkpoints.
// With cfg.Resume set and existing data present, the monitor's logger,
// processor series, health ledger and latest snapshots are rebuilt to
// their pre-crash values before the call returns, and route stability,
// derived from the logger, with them; at most the final
// partially-written record is lost, and the returned report says
// exactly what was repaired. The monitor's own settings
// (SetMaxAnomalies) apply to what is restored, so make them first. Call
// before the first cycle.
func (m *Monitor) EnableArchive(cfg ArchiveConfig) (*RecoveryReport, error) {
	if m.archive != nil {
		return nil, errors.New("mantra: archive already enabled")
	}
	store, err := logger.OpenStore(cfg.Dir, logger.StoreOptions{
		SegmentBytes:    cfg.SegmentBytes,
		SyncEveryAppend: cfg.SyncEveryAppend,
	})
	if err != nil {
		return nil, err
	}
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = 12
	}
	st := &archiveState{checkpointEvery: every}

	report := &RecoveryReport{}
	if store.HasData() {
		if !cfg.Resume {
			store.Close() // abandoning the store on a path already returning an error; nothing was written
			return nil, fmt.Errorf("%w: %s", ErrArchiveExists, cfg.Dir)
		}
		if report, err = m.core.Recover(store); err != nil {
			store.Close() // abandoning the store on a path already returning an error; nothing was written
			return nil, err
		}
		for _, target := range report.Targets {
			if sn := m.core.Log.Latest(target); sn != nil {
				m.keepSnapshot(sn)
			}
		}
	}
	st.report = report
	m.archive = st
	m.core.Store = store
	// Attach the compressed-series block mirror after recovery has rebuilt
	// the in-memory store from checkpoint + WAL replay: AttachDir repairs
	// any torn mirror tail and reconciles sealed blocks the mirror is
	// missing, so a crash mid-mirror-write self-heals here. A mirror
	// attach failure degrades to in-memory-only, same as append errors.
	if err := m.core.Proc.Store().AttachDir(filepath.Join(cfg.Dir, "tsdb"), cfg.SyncEveryAppend); err != nil {
		st.lastAppendErr = err.Error()
	}
	m.publish()
	return report, nil
}

// archiveAfterCycle advances the auto-checkpoint counter.
func (m *Monitor) archiveAfterCycle(now time.Time) {
	if m.archive == nil {
		return
	}
	m.archive.cyclesSince++
	if m.archive.cyclesSince >= m.archive.checkpointEvery {
		if err := m.checkpoint(now); err != nil {
			m.archive.lastAppendErr = err.Error()
		}
	}
}

// Checkpoint writes a full-state checkpoint — the delta log and every
// target's cycle.Checkpoint: processor series, anomalies, health — stamped
// at now, bounding the WAL tail a future recovery must replay. No-op
// without an archive.
func (m *Monitor) Checkpoint(now time.Time) error {
	defer m.publish()
	return m.checkpoint(now)
}

func (m *Monitor) checkpoint(now time.Time) error {
	if m.archive == nil {
		return nil
	}
	if err := m.core.WriteCheckpoint(now); err != nil {
		return err
	}
	m.archive.cyclesSince = 0
	return nil
}

// ArchiveStatus returns the archive's operator view (served at /archive)
// as last published, or the zero value when no archive is enabled.
func (m *Monitor) ArchiveStatus() ArchiveStatus {
	if st := m.published.Load().archive; st != nil {
		return *st
	}
	return ArchiveStatus{}
}

// buildArchiveStatus builds the archive's operator view; the archive
// must be enabled.
func (m *Monitor) buildArchiveStatus() ArchiveStatus {
	st := ArchiveStatus{
		Store:           m.core.Store.Stats(),
		Recovery:        m.archive.report,
		LastAppendError: m.archive.lastAppendErr,
	}
	if err := m.core.Proc.Store().PersistErr(); err != nil {
		st.MirrorError = err.Error()
	}
	return st
}

// CloseArchive checkpoints at now and closes the archive; the monitor
// keeps running in-memory-only. No-op without an archive.
func (m *Monitor) CloseArchive(now time.Time) error {
	if m.archive == nil {
		return nil
	}
	err := m.checkpoint(now)
	if cerr := m.core.Store.Close(); err == nil {
		err = cerr
	}
	if cerr := m.core.Proc.Store().CloseDir(); err == nil {
		err = cerr
	}
	m.archive, m.core.Store = nil, nil
	m.publish()
	return err
}
