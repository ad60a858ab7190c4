// Persistence: a write-behind on-disk mirror of every sealed block, one
// frame each of a seglog segment log (internal/core/seglog owns the
// framing, the rotation and the open-time repair) under the "MTSB0001"
// segment magic. A frame's payload is target + metric (length-prefixed)
// followed by the block bytes.
//
// The disk mirror is not the source of truth: the store is always
// rebuilt from checkpoint + WAL replay on recovery, and AttachDir then
// reconciles — any sealed block the repaired mirror is missing is
// re-appended from memory. That is what makes the mirror self-healing
// under the truncate/flip crash tests without its own recovery
// protocol. Open loads a mirror cold (sealed blocks only; the unsealed
// head lives in the WAL tail) for offline queries and benchmarks.
//
// Persistence errors degrade, never fail the cycle: the first error
// detaches the writer and is reported through PersistErr.
package tsdb

import (
	"os"
	"sort"

	"repro/internal/core/seglog"
)

const (
	segMagic  = "MTSB0001"
	segPrefix = "tsdb-"
)

type seriesKey struct{ target, metric string }

// dirWriter appends sealed-block frames to the mirror's log.
type dirWriter struct {
	log  *seglog.Log // segment IDs count up from 0
	sync bool
	err  error

	// written counts the blocks on disk per series, so reconciliation
	// and future seals know where the mirror ends.
	written map[seriesKey]int
}

// visitFrames adapts fn to a seglog visitor: a payload whose strings or
// block header do not decode is rejected, which ends the valid prefix.
func visitFrames(fn func(target, metric string, blk []byte, info BlockInfo) error) seglog.Visitor {
	return func(payload []byte) error {
		r := seglog.NewReader(payload, ErrBadBlock)
		target, metric := r.Str(), r.Str()
		if r.Err() != nil {
			return r.Err()
		}
		info, err := DecodeBlockInfo(r.Rest())
		if err != nil {
			return err
		}
		return fn(target, metric, r.Rest(), info)
	}
}

// AttachDir starts mirroring sealed blocks under dir: existing segments
// are scanned (truncating a torn or corrupt tail and dropping the
// segments after it), and every sealed block already in memory that the
// repaired mirror lacks is re-appended — so after archive recovery the
// mirror converges back to the pre-crash state. syncEveryAppend fsyncs
// each frame; otherwise segments sync on rotation and Close.
func (st *Store) AttachDir(dir string, syncEveryAppend bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d := &dirWriter{sync: syncEveryAppend, written: make(map[seriesKey]int)}
	log, _, err := seglog.Open(dir, segPrefix, segMagic, seglog.DefaultSegmentBytes,
		visitFrames(func(target, metric string, _ []byte, _ BlockInfo) error {
			d.written[seriesKey{target, metric}]++
			return nil
		}))
	if err != nil {
		return err
	}
	d.log = log
	st.dir = d
	st.reconcile()
	return d.err
}

// reconcile appends every in-memory sealed block the mirror is missing,
// in sorted series order so the mirror's frame order is deterministic.
func (st *Store) reconcile() {
	d := st.dir
	for _, target := range st.Targets() {
		tm := st.series[target]
		metrics := make([]string, 0, len(tm))
		for m := range tm {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, metric := range metrics {
			sr := tm[metric]
			have := d.written[seriesKey{target, metric}]
			for i := have; i < len(sr.blocks); i++ {
				d.appendBlock(target, metric, sr.blocks[i])
			}
		}
	}
}

// appendBlock mirrors one sealed block; the first failure — a frame
// not written, or written but its sync or rotation failed — detaches
// the writer.
func (d *dirWriter) appendBlock(target, metric string, blk []byte) {
	if d.err != nil {
		return
	}
	payload := seglog.AppendString(nil, target)
	payload = seglog.AppendString(payload, metric)
	payload = append(payload, blk...)
	var id uint64
	if segs := d.log.Segments(); len(segs) > 0 {
		id = segs[len(segs)-1].ID + 1
	}
	if _, d.err = d.log.Append(id, payload); d.err == nil && d.sync {
		d.err = d.log.Sync()
	}
	if d.err == nil {
		d.written[seriesKey{target, metric}]++
	}
}

// PersistErr reports the first persistence error, nil while the mirror
// is healthy or when no directory is attached.
func (st *Store) PersistErr() error {
	if st.dir == nil {
		return nil
	}
	return st.dir.err
}

// CloseDir syncs and closes the mirror; the store keeps serving from
// memory.
func (st *Store) CloseDir() error {
	d := st.dir
	st.dir = nil
	if d == nil {
		return nil
	}
	return d.log.Close()
}

// Open loads a mirror directory cold, read-only: every sealed block of
// the valid segment prefix, with the sparse index rebuilt. The
// unsealed heads are not here — they live in the WAL — so an opened
// store answers queries over sealed history only.
func Open(dir string) (*Store, error) {
	st := New()
	if err := seglog.Scan(dir, segPrefix, segMagic, visitFrames(st.loadBlock)); err != nil {
		return nil, err
	}
	return st, nil
}

// loadBlock grafts one sealed block onto a series once it decodes,
// indexing it by its header.
func (st *Store) loadBlock(target, metric string, blk []byte, info BlockInfo) error {
	if _, err := DecodeBlock(blk); err != nil {
		return err
	}
	sr := st.seriesFor(target, metric)
	sr.blocks = append(sr.blocks, blk)
	sr.infos = append(sr.infos, info)
	sr.total += info.Count
	return nil
}
