package cycle

import (
	"math"
	"sort"

	"repro/internal/core/collect"
	"repro/internal/core/logger"
	"repro/internal/core/process"
	"repro/internal/core/seglog"
	"repro/internal/core/tsdb"
)

// The crash form of a Checkpoint, encoded by hand with the WAL's
// primitives: AsOf, Proc and Health, each a count and then its entries
// in key order, then Ring. Logs is not written; the store's own
// checkpoint of the delta log determines it. Equal checkpoints encode to
// equal bytes.

func appendCheckpoint(b []byte, ck *Checkpoint) []byte {
	b = appendMap(b, ck.AsOf, seglog.AppendTime)
	b = appendMap(b, ck.Proc, appendProc)
	b = appendMap(b, ck.Health, appendHealth)
	b = seglog.AppendVarint(b, int64(ck.Ring.FirstID))
	b = seglog.AppendVarint(b, int64(ck.Ring.NextID))
	return seglog.AppendUvarint(b, ck.Ring.Evicted)
}

// decodeCheckpoint reads appendCheckpoint's bytes into a new checkpoint;
// bytes that do not decode are logger.ErrBadCheckpoint.
func decodeCheckpoint(b []byte) (*Checkpoint, error) {
	r := seglog.NewReader(b, logger.ErrBadCheckpoint)
	ck := NewCheckpoint()
	ck.AsOf = readMap(r, 2, r.Time)
	ck.Proc = readMap(r, 8, func() *process.TargetState { return readProc(r) })
	ck.Health = readMap(r, 9, func() collect.TargetHealth { return readHealth(r) })
	ck.Ring = process.Ring{FirstID: int(r.Varint()), NextID: int(r.Varint()), Evicted: r.Uvarint()}
	if len(r.Rest()) != 0 {
		r.Fail()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return ck, nil
}

// appendMap writes m's size, then each key and value in key order.
func appendMap[V any](b []byte, m map[string]V, put func([]byte, V) []byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = seglog.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = seglog.AppendString(b, k)
		b = put(b, m[k])
	}
	return b
}

// readMap reads an appendMap of values at least min bytes long each,
// keys included; a key repeated is a bad checkpoint.
func readMap[V any](r *seglog.Reader, min int, get func() V) map[string]V {
	n := r.Count(min)
	m := make(map[string]V, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.Str()
		if _, dup := m[k]; dup {
			r.Fail()
		}
		m[k] = get()
	}
	return m
}

func appendF64(b []byte, v float64) []byte { return seglog.AppendU64(b, math.Float64bits(v)) }

func readF64(r *seglog.Reader) float64 { return math.Float64frombits(r.U64()) }

func appendProc(b []byte, st *process.TargetState) []byte {
	b = seglog.AppendString(b, st.Target)
	b = seglog.AppendBool(b, st.Store != nil)
	if st.Store != nil {
		b = seglog.AppendString(b, st.Store.Target)
		b = appendMap(b, st.Store.Series, appendSeries)
	}
	b = seglog.AppendVarint(b, int64(st.BaseStart))
	b = seglog.AppendBool(b, st.HasBase)
	b = seglog.AppendUvarint(b, uint64(len(st.Anomalies)))
	for _, a := range st.Anomalies {
		b = seglog.AppendVarint(b, int64(a.ID))
		b = seglog.AppendString(b, a.Target)
		b = seglog.AppendTime(b, a.At)
		b = seglog.AppendString(b, a.Kind)
		b = seglog.AppendString(b, a.Detail)
		b = seglog.AppendString(b, a.Severity)
		b = seglog.AppendTime(b, a.LastSeen)
		b = seglog.AppendBool(b, a.Resolved)
		b = seglog.AppendTime(b, a.ResolvedAt)
	}
	b = seglog.AppendUvarint(b, uint64(len(st.Open)))
	for _, o := range st.Open {
		b = seglog.AppendString(b, o.Kind)
		b = seglog.AppendVarint(b, int64(o.Index))
		b = appendF64(b, o.Frozen)
	}
	return b
}

// readProc reads an appendProc; an open episode must index one of the
// target's anomalies.
func readProc(r *seglog.Reader) *process.TargetState {
	st := &process.TargetState{Target: r.Str()}
	if r.Bool() {
		st.Store = &tsdb.TargetState{Target: r.Str()}
		st.Store.Series = readMap(r, 2, func() *tsdb.SeriesState { return readSeries(r) })
	}
	st.BaseStart = int(r.Varint())
	st.HasBase = r.Bool()
	st.Anomalies = seglog.ReadList(r, 9, func() process.Anomaly {
		return process.Anomaly{ID: int(r.Varint()), Target: r.Str(), At: r.Time(), Kind: r.Str(),
			Detail: r.Str(), Severity: r.Str(), LastSeen: r.Time(), Resolved: r.Bool(), ResolvedAt: r.Time()}
	})
	st.Open = seglog.ReadList(r, 10, func() process.OpenTransfer {
		o := process.OpenTransfer{Kind: r.Str(), Index: int(r.Varint()), Frozen: readF64(r)}
		if o.Index < 0 || o.Index >= len(st.Anomalies) {
			r.Fail()
		}
		return o
	})
	return st
}

func appendSeries(b []byte, ss *tsdb.SeriesState) []byte {
	b = seglog.AppendUvarint(b, uint64(len(ss.Blocks)))
	for _, blk := range ss.Blocks {
		b = seglog.AppendUvarint(b, uint64(len(blk)))
		b = append(b, blk...)
	}
	b = seglog.AppendUvarint(b, uint64(len(ss.Head)))
	for _, p := range ss.Head {
		b = seglog.AppendVarint(b, p.T)
		b = appendF64(b, p.V)
		b = seglog.AppendBool(b, p.Gap)
	}
	return b
}

func readSeries(r *seglog.Reader) *tsdb.SeriesState {
	return &tsdb.SeriesState{
		Blocks: seglog.ReadList(r, 1, func() []byte { return []byte(r.Str()) }),
		Head: seglog.ReadList(r, 10, func() tsdb.Point {
			return tsdb.Point{T: r.Varint(), V: readF64(r), Gap: r.Bool()}
		}),
	}
}

func appendHealth(b []byte, h collect.TargetHealth) []byte {
	b = seglog.AppendString(b, h.Target)
	b = seglog.AppendVarint(b, int64(h.Breaker))
	b = seglog.AppendVarint(b, int64(h.ConsecutiveFailures))
	b = seglog.AppendVarint(b, int64(h.TotalCycles))
	b = seglog.AppendVarint(b, int64(h.TotalFailures))
	b = seglog.AppendString(b, string(h.LastStatus))
	b = seglog.AppendTime(b, h.LastSuccess)
	return seglog.AppendString(b, h.LastError)
}

func readHealth(r *seglog.Reader) collect.TargetHealth {
	return collect.TargetHealth{Target: r.Str(), Breaker: collect.BreakerState(r.Varint()),
		ConsecutiveFailures: int(r.Varint()), TotalCycles: int(r.Varint()), TotalFailures: int(r.Varint()),
		LastStatus: collect.Status(r.Str()), LastSuccess: r.Time(), LastError: r.Str()}
}
