// Package tsdb is Mantra's long-horizon series store: the compressed
// time-series layer behind the hot in-memory rings of internal/core/
// process. Every ingested point is mirrored here — delta-of-delta
// timestamps and XOR-compressed values (the Gorilla scheme) packed into
// fixed-size sealed blocks whose byte-aligned headers double as a
// sparse index — alongside incrementally maintained downsampling tiers
// (raw → per-10-point → per-100-point). Sealed blocks optionally
// persist under the archive's DataDir with the same CRC-framed writer
// discipline the WAL uses, and a small query engine (range, aggregates,
// rate, top-k) answers over blocks + head without materializing history
// it can skip.
//
// Concurrency contract: like process.Processor, a Store is owned by the
// driver goroutine; HTTP readers rely on the same between-cycle
// quiescence the /series endpoint already assumes. Compression is
// lossless — timestamps round-trip as int64 unixnano and values as raw
// float64 bits — which is what lets the streamed figure pipeline stay
// byte-identical to the post-hoc one.
package tsdb

// bitWriter packs bits MSB-first into a byte slice.
type bitWriter struct {
	b []byte
	// free is the number of unused low bits in the last byte (0 when
	// the stream is byte-aligned).
	free uint
}

func (w *bitWriter) writeBit(bit uint64) {
	if w.free == 0 {
		w.b = append(w.b, 0)
		w.free = 8
	}
	w.free--
	if bit != 0 {
		w.b[len(w.b)-1] |= 1 << w.free
	}
}

// writeBits appends the low n bits of v, most significant first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		n--
		w.writeBit((v >> n) & 1)
	}
}

func (w *bitWriter) bytes() []byte { return w.b }

// bitReader consumes bits MSB-first, latching the first out-of-bounds
// read as a sticky error — the same discipline as seglog.Reader.
type bitReader struct {
	b    []byte
	off  uint // bit offset from the start
	err  error
	fail error // sentinel to latch
}

func newBitReader(b []byte, fail error) *bitReader {
	return &bitReader{b: b, fail: fail}
}

func (r *bitReader) readBit() uint64 {
	if r.err != nil {
		return 0
	}
	if int(r.off/8) >= len(r.b) {
		r.err = r.fail
		return 0
	}
	bit := (r.b[r.off/8] >> (7 - r.off%8)) & 1
	r.off++
	return uint64(bit)
}

func (r *bitReader) readBits(n uint) uint64 {
	var v uint64
	for i := uint(0); i < n; i++ {
		v = v<<1 | r.readBit()
	}
	return v
}
