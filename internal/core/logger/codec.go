// Binary payload codec for the write-ahead log. Records are encoded by
// hand with seglog's payload primitives: the format is self-contained
// per record (a reader can start at any record boundary), deterministic,
// and cheap enough that append throughput is bounded by the disk, not
// the encoder. A checkpoint (checkpoint.go) writes its records with the
// same delta body, and the in-memory log keeps each cycle's change sets
// in that encoding too (CycleRecord.body): one form from memory to disk,
// decoded only when read. All integers are little-endian; variable
// integers use the uvarint/varint encodings of encoding/binary.
package logger

import (
	"bytes"
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

	// Delta fields (recDelta). Rec is written in either form; a decoded
	// one comes with its change sets' bytes in body, a copy of the
	// payload's as the log keeps them, which its counter column is a
	// slice of.
	Rec         CycleRecord
	body        []byte
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

// appendPair encodes an identity row: the counters travel in the column.
func appendPair(b []byte, e tables.PairEntry) []byte {
	b = seglog.AppendU32(b, uint32(e.Source))
	b = seglog.AppendU32(b, uint32(e.Group))
	b = seglog.AppendString(b, e.Flags)
	return seglog.AppendNanos(b, e.Since)
}

func appendPairKey(b []byte, k pairKey) []byte {
	b = seglog.AppendU32(b, uint32(k.Source))
	return seglog.AppendU32(b, uint32(k.Group))
}

// appendRoute encodes a route row. The varint after the metric is always
// 0: rows once carried their uptime there, and MWAL0003 keeps the place.
func appendRoute(b []byte, e tables.RouteEntry) []byte {
	b = appendPrefix(b, e.Prefix)
	b = seglog.AppendU32(b, uint32(e.Gateway))
	b = seglog.AppendBool(b, e.Local)
	b = seglog.AppendVarint(b, int64(e.Metric))
	b = seglog.AppendVarint(b, 0)
	return seglog.AppendNanos(b, e.Since)
}

func appendPrefix(b []byte, p addr.Prefix) []byte {
	b = seglog.AppendU32(b, uint32(p.Addr))
	return append(b, byte(p.Len))
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
	tag := min(zz, wideDelta) << 1
	if rateChanged {
		tag |= 1
	}
	b = seglog.AppendUvarint(b, tag)
	if zz >= wideDelta {
		b = seglog.AppendU64(b, d)
	}
	if rateChanged {
		b = seglog.AppendU64(b, rate)
	}
	return b
}

// readColumn parses a counter column and, with apply, advances the
// counters of t row by row. A column that does not parse into its
// declared row count, or with apply has not one row per row of t, is
// ErrBadRecord; t is left alone if the count is what does not fit.
func readColumn(col []byte, t tables.PairTable, apply bool) error {
	r := seglog.NewReader(col, ErrBadRecord)
	n := r.Count(1)
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

// appendDelta encodes a delta record, the part a WAL frame and a
// checkpoint share: the instant, the cycle's full-snapshot entry count,
// the two table magnitudes, then the change sets — the bytes a record
// the log keeps holds already, or a decoded record's encoding.
func appendDelta(b []byte, rec CycleRecord, fullEntries uint64) []byte {
	b = seglog.AppendTime(b, rec.At)
	b = seglog.AppendUvarint(b, fullEntries)
	b = seglog.AppendUvarint(b, uint64(rec.SACache))
	b = seglog.AppendUvarint(b, uint64(rec.MBGPRoutes))
	if rec.body != nil {
		return append(b, rec.body...)
	}
	return appendChanges(b, rec.Pairs, rec.Routes)
}

// appendChanges encodes a cycle's change sets: the pair delta —
// upserts, removals, the counter column — and the route delta, each list
// a count and its entries.
func appendChanges(b []byte, p PairDelta, r RouteDelta) []byte {
	b = seglog.AppendUvarint(b, uint64(len(p.Upserted)))
	for _, e := range p.Upserted {
		b = appendPair(b, e)
	}
	b = seglog.AppendUvarint(b, uint64(len(p.Removed)))
	for _, k := range p.Removed {
		b = appendPairKey(b, k)
	}
	b = seglog.AppendUvarint(b, uint64(len(p.Counters)))
	b = append(b, p.Counters...)
	b = seglog.AppendUvarint(b, uint64(len(r.Upserted)))
	for _, e := range r.Upserted {
		b = appendRoute(b, e)
	}
	b = seglog.AppendUvarint(b, uint64(len(r.Removed)))
	for _, p := range r.Removed {
		b = appendPrefix(b, p)
	}
	return b
}

// quietBody is the change sets of a cycle in which nothing changed:
// four empty lists and no column. Every quiet record shares it.
var quietBody = appendChanges(nil, PairDelta{}, RouteDelta{})

// own returns change-set bytes the log can keep: quietBody for a quiet
// cycle's, else a copy of b at its exact length.
func own(b []byte) []byte {
	if bytes.Equal(b, quietBody) {
		return quietBody
	}
	return bytes.Clone(b)
}

// encodePayload renders a record's payload (everything inside the frame).
func encodePayload(r walRecord) []byte {
	b := make([]byte, 0, 64+len(r.Rec.body))
	b = seglog.AppendUvarint(b, r.Seq)
	b = append(b, r.Kind)
	b = seglog.AppendString(b, r.Target)
	switch r.Kind {
	case recDelta:
		b = appendDelta(b, r.Rec, r.FullEntries)
	case recGap:
		b = seglog.AppendTime(b, r.At)
		b = seglog.AppendString(b, r.Reason)
	case recMeta:
		b = seglog.AppendTime(b, r.FirstSeen)
	}
	return b
}

// --- decoding -------------------------------------------------------------

// byteReader is seglog's latched-error reader plus the record's own
// value types.
type byteReader struct{ *seglog.Reader }

func (r byteReader) pair() tables.PairEntry {
	var e tables.PairEntry
	e.Source = addr.IP(r.U32())
	e.Group = addr.IP(r.U32())
	e.Flags = r.Str()
	e.Since = r.Nanos()
	return e
}

func (r byteReader) pairKey() pairKey {
	return pairKey{Source: addr.IP(r.U32()), Group: addr.IP(r.U32())}
}

func (r byteReader) prefix() addr.Prefix {
	a := addr.IP(r.U32())
	l := r.Byte()
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
	e.Local = r.Bool()
	e.Metric = int(r.Varint())
	if r.Varint() != 0 { // appendRoute's constant uptime
		r.Fail()
	}
	e.Since = r.Nanos()
	return e
}

// pairDelta reads the pair half of appendChanges' bytes, its counter
// column a slice of them.
func (r byteReader) pairDelta() (p PairDelta) {
	p.Upserted = seglog.ReadList(r.Reader, 2, r.pair)
	p.Removed = seglog.ReadList(r.Reader, 8, r.pairKey)
	if p.Counters = r.Bytes(); p.Counters != nil && readColumn(p.Counters, nil, false) != nil {
		r.Fail()
	}
	return p
}

// skipPairs steps over the pair half of appendChanges' bytes without
// building anything, to the route half.
func (r byteReader) skipPairs() {
	for n := r.Count(2); n > 0; n-- {
		r.pairKey()
		r.Bytes() // the flags, not made a string
		r.Nanos()
	}
	for n := r.Count(8); n > 0; n-- {
		r.pairKey()
	}
	r.Bytes()
}

// routeDelta reads the route half of appendChanges' bytes.
func (r byteReader) routeDelta() (rt RouteDelta) {
	rt.Upserted = seglog.ReadList(r.Reader, 2, r.route)
	rt.Removed = seglog.ReadList(r.Reader, 5, r.prefix)
	return rt
}

// delta reads an appendDelta record, decoded, and its change sets'
// bytes as the log keeps them (own), in a copy of their own that the
// counter column is a slice of.
func (r byteReader) delta() (dec CycleRecord, body []byte, fullEntries uint64) {
	dec.At = r.Time()
	fullEntries = r.Uvarint()
	dec.SACache = int(r.Uvarint())
	dec.MBGPRoutes = int(r.Uvarint())
	start := r.Rest()
	dec.Pairs = r.pairDelta()
	colEnd, col := len(start)-len(r.Rest()), dec.Pairs.Counters
	dec.Routes = r.routeDelta()
	if r.Err() == nil {
		body = own(start[:len(start)-len(r.Rest())])
		if col != nil {
			dec.Pairs.Counters = body[colEnd-len(col) : colEnd]
		}
	}
	return dec, body, fullEntries
}

// decoded returns rec with its change sets decoded from the bytes the
// log keeps, the counter column a slice of them; a decoded record is
// returned as it is.
func (rec CycleRecord) decoded() (CycleRecord, error) {
	if rec.body == nil {
		return rec, nil
	}
	r := rec.reader()
	rec.Pairs, rec.Routes, rec.body = r.pairDelta(), r.routeDelta(), nil
	if len(r.Rest()) != 0 {
		r.Fail()
	}
	return rec, r.Err()
}

// reader reads a kept record's change-set bytes.
func (rec CycleRecord) reader() byteReader {
	return byteReader{seglog.NewReader(rec.body, ErrBadRecord)}
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
		out.Rec, out.body, out.FullEntries = r.delta()
	case recGap:
		out.At = r.Time()
		out.Reason = r.Str()
	case recMeta:
		out.FirstSeen = r.Time()
	default:
		r.Fail()
	}
	if n := len(r.Rest()); r.Err() == nil && n != 0 {
		return out, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, n)
	}
	return out, r.Err()
}
