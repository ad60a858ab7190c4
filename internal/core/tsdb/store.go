// Store: per-(target, metric) compressed series, transfer/checkpoint
// state, and an optional persistence sink for sealed blocks
// (persist.go).
package tsdb

import (
	"math"
	"sort"
	"sync"
)

// Tier sizes for downsampled range reads: a tier-10 point summarizes 10
// raw points, a tier-100 point 100. Bucket boundaries are fixed
// multiples of the absolute point index, so two stores that ingested
// the same points answer the same buckets regardless of seal or
// transfer history.
const (
	Tier10  = 10
	Tier100 = 100
)

// series is one (target, metric) stream: sealed blocks with their
// sparse-index entries and the unsealed head.
type series struct {
	blocks [][]byte
	infos  []BlockInfo
	head   []Point
	total  int // points ever appended (blocks + head)
}

// Store holds every compressed series. The cycle driver writes it and
// HTTP readers query it at any time, mid-cycle included: mu guards the
// series map, every series in it and the mirror, and no method calls
// another exported one while holding it.
type Store struct {
	mu     sync.RWMutex
	series map[string]map[string]*series

	// persistence (persist.go); nil dir means memory-only.
	dir *dirWriter
}

// New returns an empty, memory-only store.
func New() *Store {
	return &Store{series: make(map[string]map[string]*series)}
}

func (st *Store) seriesFor(target, metric string) *series {
	tm := st.series[target]
	if tm == nil {
		tm = make(map[string]*series)
		st.series[target] = tm
	}
	sr := tm[metric]
	if sr == nil {
		sr = &series{}
		tm[metric] = sr
	}
	return sr
}

func (st *Store) lookup(target, metric string) *series { return st.series[target][metric] }

// Append records one value point. Timestamps are unixnano and must be
// appended in nondecreasing order per series (Mantra's cycle clock
// guarantees this; the codec itself tolerates anything).
//
//mantra:hotpath
func (st *Store) Append(target, metric string, t int64, v float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.appendPoint(target, metric, Point{T: t, V: v})
}

// AppendGap records a failed-collection marker.
func (st *Store) AppendGap(target, metric string, t int64) {
	AppendRow(st, target, []string{metric}, t, nil)
}

// AppendRow records one point at t in each of a target's metrics, in
// metrics order, under one lock: vals[i] in metrics[i], or a gap marker
// in each when vals is nil. The order is the order blocks seal in.
func AppendRow[M ~string](st *Store, target string, metrics []M, t int64, vals []float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, m := range metrics {
		pt := Point{T: t, Gap: vals == nil}
		if vals != nil {
			pt.V = vals[i]
		}
		st.appendPoint(target, string(m), pt)
	}
}

func (st *Store) appendPoint(target, metric string, pt Point) {
	sr := st.seriesFor(target, metric)
	sr.head = append(sr.head, pt)
	sr.total++
	if len(sr.head) >= BlockPoints {
		st.seal(target, metric, sr)
	}
}

// seal encodes the head into a block, indexes it, and hands it to the
// persistence sink when one is attached.
func (st *Store) seal(target, metric string, sr *series) {
	blk := EncodeBlock(sr.head)
	info, err := DecodeBlockInfo(blk)
	if err != nil {
		// Self-encoded blocks always decode; reaching here is a codec
		// bug, and dropping the block would silently lose data.
		panic("tsdb: sealed block failed to decode: " + err.Error())
	}
	sr.blocks = append(sr.blocks, blk)
	sr.infos = append(sr.infos, info)
	sr.head = nil
	if st.dir != nil {
		st.dir.appendBlock(target, metric, blk)
	}
}

// Targets returns every target with at least one series, sorted.
func (st *Store) Targets() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.targets()
}

func (st *Store) targets() []string {
	out := make([]string, 0, len(st.series))
	for t := range st.series {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of points (values and gaps) stored for one
// series, 0 when unseen.
func (st *Store) Len(target, metric string) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if sr := st.lookup(target, metric); sr != nil {
		return sr.total
	}
	return 0
}

// CompressedBytes returns the in-memory size of one series: sealed
// block bytes plus a raw-width bound (17 bytes: timestamp, value, gap
// flag) for the unsealed head. The number compression ratios are
// quoted against; 0 when unseen.
func (st *Store) CompressedBytes(target, metric string) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := 0
	if sr := st.lookup(target, metric); sr != nil {
		for _, blk := range sr.blocks {
			n += len(blk)
		}
		n += 17 * len(sr.head)
	}
	return n
}

// Materialize decodes one series back into its full point run, nil
// when the series is unseen.
func (st *Store) Materialize(target, metric string) ([]Point, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	sr := st.lookup(target, metric)
	if sr == nil {
		return nil, nil
	}
	out := make([]Point, 0, sr.total)
	if err := sr.scan(math.MinInt64, math.MaxInt64, func(pts []Point) { out = append(out, pts...) }); err != nil {
		return nil, err
	}
	return out, nil
}

// Scan hands fn one series' points in append order, a sealed block at
// a time and then the head, without building the whole run: the reader
// for paths that must not allocate with history. fn must neither keep
// nor modify the slice, and runs under the store's read lock, so it
// must not call the store. An unseen series calls fn never.
func (st *Store) Scan(target, metric string, fn func(pts []Point)) error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if sr := st.lookup(target, metric); sr != nil {
		return sr.scan(math.MinInt64, math.MaxInt64, fn)
	}
	return nil
}

// scan hands fn, in order, the points of every sealed block whose span
// meets [lo, hi], each decoded into one reused buffer, and then the
// head's. The points are the whole block's: fn filters.
func (sr *series) scan(lo, hi int64, fn func(pts []Point)) error {
	var buf []Point
	for i, blk := range sr.blocks {
		if info := sr.infos[i]; info.LastT < lo || info.FirstT > hi {
			continue
		}
		var err error
		if buf, err = appendBlock(buf[:0], blk); err != nil {
			return err
		}
		fn(buf)
	}
	if len(sr.head) > 0 {
		fn(sr.head)
	}
	return nil
}

// SeriesState is the exportable form of one compressed series. Sealed
// block payloads are immutable after seal, so exports share them and
// deep-copy only the head.
type SeriesState struct {
	Blocks [][]byte
	Head   []Point
}

// TargetState is one target's store state: the shard-handoff transfer
// unit, carried inside process.TargetState.
type TargetState struct {
	Target string
	Series map[string]*SeriesState
}

// State is the whole-store export, carried inside process.State. No
// product caller; kept for bench/layers.go.
type State struct {
	Targets map[string]*TargetState
}

// ExportTarget copies one target's series state, nil when unseen.
func (st *Store) ExportTarget(target string) *TargetState {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.exportTarget(target)
}

func (st *Store) exportTarget(target string) *TargetState {
	tm := st.series[target]
	if tm == nil {
		return nil
	}
	out := &TargetState{Target: target, Series: make(map[string]*SeriesState, len(tm))}
	for metric, sr := range tm {
		out.Series[metric] = &SeriesState{
			Blocks: append([][]byte(nil), sr.blocks...),
			Head:   append([]Point(nil), sr.head...),
		}
	}
	return out
}

// ImportTarget replaces one target's series state, leaving other
// targets untouched; nil removes the target. Every imported block is
// decoded once to validate it, and its sparse-index entry rebuilt from
// its header.
func (st *Store) ImportTarget(target string, ts *TargetState) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.series, target)
	if ts == nil {
		return nil
	}
	tm := make(map[string]*series, len(ts.Series))
	var buf []Point
	for metric, ss := range ts.Series {
		sr := &series{}
		for _, blk := range ss.Blocks {
			info, err := DecodeBlockInfo(blk)
			if err == nil {
				buf, err = appendBlock(buf[:0], blk)
			}
			if err != nil {
				return err
			}
			sr.blocks = append(sr.blocks, blk)
			sr.infos = append(sr.infos, info)
			sr.total += info.Count
		}
		sr.head = append(sr.head, ss.Head...)
		sr.total += len(ss.Head)
		tm[metric] = sr
	}
	st.series[target] = tm
	return nil
}

// Export copies the whole store's state. No product caller; kept for
// bench/layers.go.
func (st *Store) Export() *State {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := &State{Targets: make(map[string]*TargetState, len(st.series))}
	for target := range st.series {
		out.Targets[target] = st.exportTarget(target)
	}
	return out
}

// Remove drops one target's series.
func (st *Store) Remove(target string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.series, target)
}
