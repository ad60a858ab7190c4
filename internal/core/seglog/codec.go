package seglog

import "encoding/binary"

// The payload primitives the WAL record, the mirror frame and the block
// header are built from: little-endian fixed integers, the uvarint and
// varint encodings of encoding/binary, and length-prefixed strings.

func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func AppendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }
func AppendU32(b []byte, v uint32) []byte     { return binary.LittleEndian.AppendUint32(b, v) }
func AppendU64(b []byte, v uint64) []byte     { return binary.LittleEndian.AppendUint64(b, v) }

func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
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
