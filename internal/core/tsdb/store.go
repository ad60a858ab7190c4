// Store: per-(target, metric) compressed series with downsampling
// tiers, transfer/checkpoint state, and an optional persistence sink
// for sealed blocks (persist.go).
package tsdb

import "sort"

// Bucket is one downsample-tier entry: the summary of ten (tier 10) or
// a hundred (tier 100) consecutive points. Aggregate fields cover value
// points; Gaps counts gap markers that fell in the bucket.
type Bucket struct {
	FirstT int64
	LastT  int64
	Count  int
	Gaps   int
	Min    float64
	Max    float64
	Sum    float64
	First  float64
	Last   float64
}

// Tier sizes: a tier-10 bucket summarizes 10 raw points, a tier-100
// bucket 100. Bucket boundaries are fixed multiples of the absolute
// point index, so two stores that ingested the same points hold the
// same buckets regardless of seal or transfer history.
const (
	Tier10  = 10
	Tier100 = 100
)

// series is one (target, metric) stream: sealed blocks with their
// sparse-index entries, the unsealed head, and the downsample tiers.
type series struct {
	blocks [][]byte
	infos  []BlockInfo
	head   []Point
	total  int // points ever appended (blocks + head)
	t10    []Bucket
	t100   []Bucket
}

// Store holds every compressed series. Driver-goroutine owned, like
// process.Processor: writers run between cycles, HTTP readers rely on
// the same quiescence contract as /series.
type Store struct {
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

func (st *Store) lookup(target, metric string) *series {
	tm := st.series[target]
	if tm == nil {
		return nil
	}
	return tm[metric]
}

// Append records one value point. Timestamps are unixnano and must be
// appended in nondecreasing order per series (Mantra's cycle clock
// guarantees this; the codec itself tolerates anything).
//
//mantra:hotpath
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
	sr.addToTiers(pt)
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

// addToTiers folds one point into the open tier buckets. The point's
// absolute index is sr.total (pre-increment).
func (sr *series) addToTiers(pt Point) {
	if sr.total/Tier10 == len(sr.t10) {
		sr.t10 = append(sr.t10, Bucket{})
	}
	foldBucket(&sr.t10[len(sr.t10)-1], pt)
	if sr.total/Tier100 == len(sr.t100) {
		sr.t100 = append(sr.t100, Bucket{})
	}
	foldBucket(&sr.t100[len(sr.t100)-1], pt)
}

func foldBucket(b *Bucket, pt Point) {
	if b.Count+b.Gaps == 0 {
		b.FirstT = pt.T
	}
	b.LastT = pt.T
	if pt.Gap {
		b.Gaps++
		return
	}
	if b.Count == 0 {
		b.Min, b.Max, b.First = pt.V, pt.V, pt.V
	} else {
		if pt.V < b.Min {
			b.Min = pt.V
		}
		if pt.V > b.Max {
			b.Max = pt.V
		}
	}
	b.Count++
	b.Sum += pt.V
	b.Last = pt.V
}

// Targets returns every target with at least one series, sorted.
func (st *Store) Targets() []string {
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
	sr := st.lookup(target, metric)
	if sr == nil {
		return 0
	}
	return sr.total
}

// CompressedBytes returns the in-memory size of one series: sealed
// block bytes plus a raw-width bound (17 bytes: timestamp, value, gap
// flag) for the unsealed head. The number compression ratios are
// quoted against; 0 when unseen.
func (st *Store) CompressedBytes(target, metric string) int {
	sr := st.lookup(target, metric)
	if sr == nil {
		return 0
	}
	n := 0
	for _, blk := range sr.blocks {
		n += len(blk)
	}
	return n + 17*len(sr.head)
}

// Materialize decodes one series back into its full point run, nil
// when the series is unseen.
func (st *Store) Materialize(target, metric string) ([]Point, error) {
	sr := st.lookup(target, metric)
	if sr == nil {
		return nil, nil
	}
	out := make([]Point, 0, sr.total)
	for _, blk := range sr.blocks {
		pts, err := DecodeBlock(blk)
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	return append(out, sr.head...), nil
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

// State is the whole-store export, carried inside process.State into
// archive checkpoints.
type State struct {
	Targets map[string]*TargetState
}

// ExportTarget copies one target's series state, nil when unseen.
func (st *Store) ExportTarget(target string) *TargetState {
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
// targets untouched; nil removes the target. Sparse-index entries and
// tier buckets are rebuilt from the imported blocks.
func (st *Store) ImportTarget(target string, ts *TargetState) error {
	delete(st.series, target)
	if ts == nil {
		return nil
	}
	tm := make(map[string]*series, len(ts.Series))
	for metric, ss := range ts.Series {
		sr := &series{}
		for _, blk := range ss.Blocks {
			pts, err := DecodeBlock(blk)
			if err != nil {
				return err
			}
			info, err := DecodeBlockInfo(blk)
			if err != nil {
				return err
			}
			sr.blocks = append(sr.blocks, blk)
			sr.infos = append(sr.infos, info)
			for _, pt := range pts {
				sr.addToTiers(pt)
				sr.total++
			}
		}
		for _, pt := range ss.Head {
			sr.head = append(sr.head, pt)
			sr.addToTiers(pt)
			sr.total++
		}
		tm[metric] = sr
	}
	st.series[target] = tm
	return nil
}

// Export copies the whole store's state.
func (st *Store) Export() *State {
	out := &State{Targets: make(map[string]*TargetState, len(st.series))}
	for target := range st.series {
		out.Targets[target] = st.ExportTarget(target)
	}
	return out
}

// Import replaces the whole store's state; nil just clears it.
func (st *Store) Import(s *State) error {
	st.series = make(map[string]map[string]*series)
	if s == nil {
		return nil
	}
	for target, ts := range s.Targets {
		if err := st.ImportTarget(target, ts); err != nil {
			return err
		}
	}
	return nil
}

// Remove drops one target's series.
func (st *Store) Remove(target string) {
	delete(st.series, target)
}
