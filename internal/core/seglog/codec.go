package seglog

import (
	"encoding/binary"
	"time"
)

// The payload primitives the WAL record, the checkpoint, the mirror
// frame and the block header are built from: little-endian fixed
// integers, the uvarint and varint encodings of encoding/binary,
// length-prefixed strings, one-byte bools and instants.

func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func AppendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }
func AppendU32(b []byte, v uint32) []byte     { return binary.LittleEndian.AppendUint32(b, v) }
func AppendU64(b []byte, v uint64) []byte     { return binary.LittleEndian.AppendUint64(b, v) }

func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendTime encodes an absolute instant: a zero flag byte for the zero
// time, else unix seconds plus nanoseconds. Time restores UTC, which is
// what every producer in the pipeline stamps.
func AppendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	b = AppendVarint(b, t.Unix())
	return AppendU32(b, uint32(t.Nanosecond()))
}

// AppendNanos encodes an instant held as Unix nanoseconds, 0 for none,
// as AppendTime encodes it.
func AppendNanos(b []byte, ns int64) []byte {
	if ns == 0 {
		return append(b, 0)
	}
	return AppendTime(b, time.Unix(0, ns))
}

// Reader walks an immutable payload, latching the first error: a short
// or malformed read also consumes whatever is left, so every later read
// fails too and returns zero, and a decoder reads straight through and
// checks Err once.
type Reader struct {
	b   []byte
	off int
	bad error
	err error
}

// NewReader reads b; bad is the error a failed read latches.
func NewReader(b []byte, bad error) *Reader { return &Reader{b: b, bad: bad} }

// Err is the latched error, nil while every read has succeeded.
func (r *Reader) Err() error { return r.err }

// Fail latches the reader's error; decoders call it for values that
// read fine but cannot be right.
func (r *Reader) Fail() {
	if r.err == nil {
		r.err = r.bad
	}
	r.off = len(r.b)
}

// Rest returns the unread bytes without consuming them: nothing, once
// an error is latched.
func (r *Reader) Rest() []byte { return r.b[r.off:] }

// take consumes n bytes, or latches and returns nil.
func (r *Reader) take(n int) []byte {
	if n > len(r.b)-r.off {
		r.Fail()
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *Reader) Byte() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.off += n
	return v
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.Fail()
		return ""
	}
	return string(r.take(int(n)))
}

// Bytes reads a length-prefixed byte string as a slice of the payload,
// not a copy; nil when it is empty.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.Fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	return r.take(int(n))
}

// Bool reads AppendBool's byte: 1 is true, anything else false.
func (r *Reader) Bool() bool { return r.Byte() == 1 }

// Time reads an AppendTime instant, in UTC.
func (r *Reader) Time() time.Time {
	if r.Byte() == 0 || r.err != nil {
		return time.Time{}
	}
	sec := r.Varint()
	nsec := r.U32()
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// Nanos reads an AppendNanos instant; one that Unix nanoseconds cannot
// hold fails.
func (r *Reader) Nanos() int64 {
	t := r.Time()
	if t.IsZero() {
		return 0
	}
	ns := t.UnixNano() // wraps out of range, which the round trip tells
	if !time.Unix(0, ns).Equal(t) {
		r.Fail()
		return 0
	}
	return ns
}

// Count reads a declared element count and checks it against the bytes
// remaining, so a corrupted length cannot trigger a huge allocation;
// min is the smallest possible encoded size of one element.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if min > 0 && n > uint64(len(r.b)-r.off)/uint64(min) {
		r.Fail()
		return 0
	}
	return int(n)
}

// ReadList reads a count-prefixed list of elements of at least min bytes
// each; nil when it is empty.
func ReadList[T any](r *Reader, min int, elem func() T) []T {
	n := r.Count(min)
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, elem())
	}
	return out
}
