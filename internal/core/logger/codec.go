// Binary payload codec for the write-ahead log. Records are encoded by
// hand with seglog's payload primitives rather than gob: the format is
// self-contained per record (a reader can start at any record boundary),
// deterministic, and cheap enough that append throughput is bounded by
// the disk, not the encoder. All integers are little-endian; variable
// integers use the uvarint/varint encodings of encoding/binary.
package logger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/addr"
	"repro/internal/core/seglog"
	"repro/internal/core/tables"
)

// WAL record kinds.
const (
	// recDelta carries one cycle's delta record for one target.
	recDelta byte = 1
	// recGap marks one failed cycle for one target.
	recGap byte = 2
	// recMeta announces a target the first time it appears in the log.
	recMeta byte = 3
)

// walRecord is one decoded WAL record.
type walRecord struct {
	Seq    uint64
	Kind   byte
	Target string

	// Delta fields (recDelta).
	Rec         CycleRecord
	FullEntries uint64

	// Gap fields (recGap).
	At     time.Time
	Reason string

	// Meta fields (recMeta).
	FirstSeen time.Time
}

// ErrBadRecord reports a structurally invalid record payload — the CRC
// matched but the contents do not decode, which indicates an encoder bug
// or deliberate tampering rather than a torn write.
var ErrBadRecord = errors.New("logger: malformed wal record")

// --- encoding -------------------------------------------------------------

// appendTime encodes an absolute instant: a zero flag byte for the zero
// time, else unix seconds plus nanoseconds. Decoding restores UTC, which
// is what every producer in the pipeline stamps.
func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	b = seglog.AppendVarint(b, t.Unix())
	return seglog.AppendU32(b, uint32(t.Nanosecond()))
}

// boolByte is the codec's one-byte bool encoding.
func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// appendPair encodes an identity row: the counters travel in the column.
func appendPair(b []byte, e tables.PairEntry) []byte {
	b = seglog.AppendU32(b, uint32(e.Source))
	b = seglog.AppendU32(b, uint32(e.Group))
	b = seglog.AppendString(b, e.Flags)
	return appendTime(b, e.Since)
}

func appendRoute(b []byte, e tables.RouteEntry) []byte {
	b = seglog.AppendU32(b, uint32(e.Prefix.Addr))
	b = append(b, byte(e.Prefix.Len))
	b = seglog.AppendU32(b, uint32(e.Gateway))
	b = append(b, boolByte(e.Local))
	b = seglog.AppendVarint(b, int64(e.Metric))
	b = seglog.AppendVarint(b, int64(e.Uptime))
	return appendTime(b, e.Since)
}

// --- the counter column ---------------------------------------------------

// A counter column is a uvarint row count, the length of the table its
// record leaves, then a row per pair of it in key order: the uvarint
// zigzag(Packets − predecessor's Packets)<<1 | rate-changed, then the new
// rate's 8 raw Float64bits if it changed. Deltas wrap modulo 2^64; one
// whose zigzag is too wide to shift is written as wideDelta followed by
// its own 8 raw bytes. A new key's predecessor counts 0 packets at +0.
const wideDelta = 1<<63 - 1

func appendCounter(b []byte, d, rate uint64, rateChanged bool) []byte {
	zz := uint64(int64(d)<<1) ^ uint64(int64(d)>>63)
	b = seglog.AppendUvarint(b, min(zz, wideDelta)<<1|uint64(boolByte(rateChanged)))
	if zz >= wideDelta {
		b = seglog.AppendU64(b, d)
	}
	if rateChanged {
		b = seglog.AppendU64(b, rate)
	}
	return b
}

// sealColumn puts the row count before the rows, in a slice allocated
// at its length: the record keeps it, the rows' buffer is reused.
func sealColumn(rows int, body []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(rows))
	return append(append(make([]byte, 0, n+len(body)), hdr[:n]...), body...)
}

// readColumn parses a counter column and, with apply, advances the
// counters of t row by row. A column that does not parse into its
// declared row count, or with apply has not one row per row of t, is
// ErrBadRecord; t is left alone if the count is what does not fit.
func readColumn(col []byte, t tables.PairTable, apply bool) error {
	r := byteReader{seglog.NewReader(col, ErrBadRecord)}
	n := r.count(1)
	if apply && n != len(t) {
		r.Fail()
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		tag := r.Uvarint()
		d := uint64(int64(tag>>2) ^ -int64(tag>>1&1))
		if tag>>1 == wideDelta {
			d = r.U64()
		}
		if tag&1 == 1 {
			rate := r.U64()
			if apply {
				t[i].RateKbps = math.Float64frombits(rate)
			}
		}
		if apply {
			t[i].Packets += d
		}
	}
	if len(r.Rest()) != 0 {
		r.Fail()
	}
	return r.Err()
}

// encodePayload renders a record's payload (everything inside the frame).
//
//mantra:hotpath budget=1
func encodePayload(r walRecord) []byte {
	b := make([]byte, 0, 64)
	b = seglog.AppendUvarint(b, r.Seq)
	b = append(b, r.Kind)
	b = seglog.AppendString(b, r.Target)
	switch r.Kind {
	case recDelta:
		b = appendTime(b, r.Rec.At)
		b = seglog.AppendUvarint(b, r.FullEntries)
		b = seglog.AppendUvarint(b, uint64(r.Rec.SACache))
		b = seglog.AppendUvarint(b, uint64(r.Rec.MBGPRoutes))
		b = seglog.AppendUvarint(b, uint64(len(r.Rec.Pairs.Upserted)))
		for _, e := range r.Rec.Pairs.Upserted {
			b = appendPair(b, e)
		}
		b = seglog.AppendUvarint(b, uint64(len(r.Rec.Pairs.Removed)))
		for _, k := range r.Rec.Pairs.Removed {
			b = seglog.AppendU32(b, uint32(k.Source))
			b = seglog.AppendU32(b, uint32(k.Group))
		}
		b = seglog.AppendUvarint(b, uint64(len(r.Rec.Pairs.Counters)))
		b = append(b, r.Rec.Pairs.Counters...)
		b = seglog.AppendUvarint(b, uint64(len(r.Rec.Routes.Upserted)))
		for _, e := range r.Rec.Routes.Upserted {
			b = appendRoute(b, e)
		}
		b = seglog.AppendUvarint(b, uint64(len(r.Rec.Routes.Removed)))
		for _, p := range r.Rec.Routes.Removed {
			b = seglog.AppendU32(b, uint32(p.Addr))
			b = append(b, byte(p.Len))
		}
	case recGap:
		b = appendTime(b, r.At)
		b = seglog.AppendString(b, r.Reason)
	case recMeta:
		b = appendTime(b, r.FirstSeen)
	}
	return b
}

// --- decoding -------------------------------------------------------------

// byteReader is seglog's latched-error reader plus the record's own
// value types.
type byteReader struct{ *seglog.Reader }

func (r byteReader) time() time.Time {
	if r.Byte() == 0 || r.Err() != nil {
		return time.Time{}
	}
	sec := r.Varint()
	nsec := r.U32()
	if r.Err() != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// count validates a declared element count against the bytes remaining so
// a corrupted length cannot trigger a huge allocation; min is the smallest
// possible encoded size of one element.
func (r byteReader) count(min int) int {
	n := r.Uvarint()
	if r.Err() != nil {
		return 0
	}
	if min > 0 && n > uint64(len(r.Rest())/min) {
		r.Fail()
		return 0
	}
	return int(n)
}

func (r byteReader) pair() tables.PairEntry {
	var e tables.PairEntry
	e.Source = addr.IP(r.U32())
	e.Group = addr.IP(r.U32())
	e.Flags = r.Str()
	e.Since = r.time()
	return e
}

func (r byteReader) pairKey() pairKey {
	return pairKey{Source: addr.IP(r.U32()), Group: addr.IP(r.U32())}
}

// readList reads a count-prefixed list of elements of at least min
// bytes each; nil when it is empty.
func readList[T any](r byteReader, min int, elem func() T) []T {
	n := r.count(min)
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, elem())
	}
	return out
}

func (r byteReader) prefix() addr.Prefix {
	a := addr.IP(r.U32())
	l := int(r.Byte())
	if l > 32 {
		r.Fail()
		return addr.Prefix{}
	}
	return addr.Prefix{Addr: a, Len: l}
}

func (r byteReader) route() tables.RouteEntry {
	var e tables.RouteEntry
	e.Prefix = r.prefix()
	e.Gateway = addr.IP(r.U32())
	e.Local = r.Byte() == 1
	e.Metric = int(r.Varint())
	e.Uptime = time.Duration(r.Varint())
	e.Since = r.time()
	return e
}

// decodePayload parses one record payload.
func decodePayload(b []byte) (walRecord, error) {
	r := byteReader{seglog.NewReader(b, ErrBadRecord)}
	var out walRecord
	out.Seq = r.Uvarint()
	out.Kind = r.Byte()
	out.Target = r.Str()
	switch out.Kind {
	case recDelta:
		out.Rec.At = r.time()
		out.FullEntries = r.Uvarint()
		out.Rec.SACache = int(r.Uvarint())
		out.Rec.MBGPRoutes = int(r.Uvarint())
		out.Rec.Pairs.Upserted = readList(r, 2, r.pair)
		out.Rec.Pairs.Removed = readList(r, 8, r.pairKey)
		if col := r.Str(); col != "" {
			out.Rec.Pairs.Counters = []byte(col) // not a slice of the segment's read buffer
			if readColumn(out.Rec.Pairs.Counters, nil, false) != nil {
				r.Fail()
			}
		}
		out.Rec.Routes.Upserted = readList(r, 2, r.route)
		out.Rec.Routes.Removed = readList(r, 5, r.prefix)
	case recGap:
		out.At = r.time()
		out.Reason = r.Str()
	case recMeta:
		out.FirstSeen = r.time()
	default:
		r.Fail()
	}
	if n := len(r.Rest()); r.Err() == nil && n != 0 {
		return out, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, n)
	}
	return out, r.Err()
}
