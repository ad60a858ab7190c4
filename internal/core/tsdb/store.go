// Store: per-(target, metric) compressed series, transfer/checkpoint
// state, and an optional persistence sink for sealed blocks
// (persist.go).
package tsdb

import (
	"math"
	"sort"
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
// sparse-index entries and the unsealed head. blocks, infos and head
// only ever grow by append, and seal starts a fresh head, so a copy of
// the struct with every slice capped at its length is an immutable
// picture of the series: later appends land past its ends.
type series struct {
	blocks [][]byte
	infos  []BlockInfo
	head   []Point
	total  int // points ever appended (blocks + head)
}

// reader is the read side of a series map, written once for the live
// store and its views: Store and View both embed it.
type reader struct {
	series map[string]map[string]*series
}

// View is an immutable picture of a Store at the instant Store.View
// took it. It shares the sealed blocks and the heads' backing arrays
// with the store and copies no point, and it is safe to read from any
// goroutine while the store goes on being written.
type View struct {
	reader
}

// Store holds every compressed series. It belongs to one goroutine,
// the one that writes it — the cycle driver, or between cycles whoever
// owns the driver — and its reads are that goroutine's too. Any other
// goroutine reads a View.
type Store struct {
	reader

	// persistence (persist.go); nil dir means memory-only.
	dir *dirWriter
}

// New returns an empty, memory-only store.
func New() *Store {
	return &Store{reader: reader{series: make(map[string]map[string]*series)}}
}

// View returns an immutable picture of the store as it stands: per
// series, the struct copied with its slices capped at their lengths.
func (st *Store) View() *View {
	n := 0
	for _, tm := range st.series {
		n += len(tm)
	}
	all := make([]series, 0, n)
	out := make(map[string]map[string]*series, len(st.series))
	for target, tm := range st.series {
		vm := make(map[string]*series, len(tm))
		for metric, sr := range tm {
			all = append(all, series{ // backing storage only; the maps index it, so its order is never read
				blocks: sr.blocks[:len(sr.blocks):len(sr.blocks)],
				infos:  sr.infos[:len(sr.infos):len(sr.infos)],
				head:   sr.head[:len(sr.head):len(sr.head)],
				total:  sr.total,
			})
			vm[metric] = &all[len(all)-1]
		}
		out[target] = vm
	}
	return &View{reader{series: out}}
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

func (r *reader) lookup(target, metric string) *series { return r.series[target][metric] }

// Append records one value point. Timestamps are unixnano and must be
// appended in nondecreasing order per series (Mantra's cycle clock
// guarantees this; the codec itself tolerates anything).
func (st *Store) Append(target, metric string, t int64, v float64) {
	st.appendPoint(target, metric, Point{T: t, V: v})
}

// AppendGap records a failed-collection marker.
func (st *Store) AppendGap(target, metric string, t int64) {
	st.appendPoint(target, metric, Point{T: t, Gap: true})
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
func (r *reader) Targets() []string {
	out := make([]string, 0, len(r.series))
	for t := range r.series {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of points (values and gaps) stored for one
// series, 0 when unseen.
func (r *reader) Len(target, metric string) int {
	if sr := r.lookup(target, metric); sr != nil {
		return sr.total
	}
	return 0
}

// CompressedBytes returns the in-memory size of one series: sealed
// block bytes plus a raw-width bound (17 bytes: timestamp, value, gap
// flag) for the unsealed head. The number compression ratios are
// quoted against; 0 when unseen.
func (r *reader) CompressedBytes(target, metric string) int {
	n := 0
	if sr := r.lookup(target, metric); sr != nil {
		for _, blk := range sr.blocks {
			n += len(blk)
		}
		n += 17 * len(sr.head)
	}
	return n
}

// Materialize decodes one series back into its full point run, nil
// when the series is unseen.
func (r *reader) Materialize(target, metric string) ([]Point, error) {
	sr := r.lookup(target, metric)
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
// nor modify the slice. An unseen series calls fn never.
func (r *reader) Scan(target, metric string, fn func(pts []Point)) error {
	if sr := r.lookup(target, metric); sr != nil {
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

// SeriesState is the exportable form of one compressed series. An
// export shares the store's arrays, as a View does: Blocks and Head are
// the series' slices capped at their lengths, which later appends land
// past and a seal replaces, so the export stays what it was while the
// store goes on. Neither may be written.
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

// ExportTarget takes one target's series state, nil when unseen: the
// picture View takes, so it copies no point.
func (st *Store) ExportTarget(target string) *TargetState {
	tm := st.series[target]
	if tm == nil {
		return nil
	}
	out := &TargetState{Target: target, Series: make(map[string]*SeriesState, len(tm))}
	for metric, sr := range tm {
		out.Series[metric] = &SeriesState{
			Blocks: sr.blocks[:len(sr.blocks):len(sr.blocks)],
			Head:   sr.head[:len(sr.head):len(sr.head)],
		}
	}
	return out
}

// ImportTarget replaces one target's series state with a copy of ts,
// leaving other targets untouched; nil removes the target. Every imported block is
// decoded once to validate it, and its sparse-index entry rebuilt from
// its header.
func (st *Store) ImportTarget(target string, ts *TargetState) error {
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
	out := &State{Targets: make(map[string]*TargetState, len(st.series))}
	for target := range st.series {
		out.Targets[target] = st.ExportTarget(target)
	}
	return out
}

// Remove drops one target's series.
func (st *Store) Remove(target string) {
	delete(st.series, target)
}
