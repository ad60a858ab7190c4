// Package tsdb is Mantra's series store: the one holder of every point
// internal/core/process ingests, compressed — delta-of-delta
// timestamps and XOR-compressed values (the Gorilla scheme) packed into
// fixed-size sealed blocks whose byte-aligned headers double as a
// sparse index. The blocks and the unsealed head are a series' one
// representation: downsampled reads (per-10-point and per-100-point
// buckets) fold them at query time. Sealed blocks optionally persist
// under the archive's DataDir with the same CRC-framed writer
// discipline the WAL uses, and a small query engine (range, tiers,
// aggregates, rate, top-k) answers without decoding history it can
// skip. A Store belongs to the goroutine that writes it; any other
// goroutine reads a View, an immutable picture of the store that shares
// its blocks and costs a slice header per series. Compression is
// lossless, so a series read back is every point ingested.
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
