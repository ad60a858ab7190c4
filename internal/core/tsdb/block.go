// Block codec: Gorilla-style compression of one run of points.
//
// A sealed block is a byte-aligned header followed by a bitstream. The
// header carries everything range- and aggregate-queries need to decide
// whether the bitstream must be decoded at all — first/last timestamp
// for skipping, count/min/max/sum and first/last value for answering
// fully-contained aggregates — so the header set over all blocks is the
// store's sparse index, loadable without touching point data.
//
// The bitstream encodes, per point: a gap flag, a delta-of-delta
// timestamp ('0' = repeat delta, '10'+32-bit zigzag, '11'+64-bit raw),
// and for value points an XOR-compressed float64 ('0' = repeat value,
// '10' = reuse the previous leading/trailing window, '11' = new window:
// 6 bits leading zeros, 6 bits significant-bit count minus one, then
// the significant bits). Gap points carry a timestamp but no value and
// leave the value predictor untouched. Everything is lossless.
package tsdb

import (
	"errors"
	"math"
	"math/bits"
	"slices"

	"repro/internal/core/seglog"
)

// ErrBadBlock reports a block that cannot be decoded: truncated,
// corrupted, or from an unknown version.
var ErrBadBlock = errors.New("tsdb: bad block")

const blockVersion = 1

// BlockPoints is the seal threshold: a series' head is encoded into a
// sealed block every BlockPoints points (values and gaps combined).
const BlockPoints = 256

// Point is one stored sample: a unixnano timestamp and either a value
// or a gap marker (a cycle in which collection failed; V is zero and
// meaningless when Gap is set).
type Point struct {
	T   int64
	V   float64
	Gap bool
}

// BlockInfo is a decoded block header — one sparse-index entry. The
// aggregate fields cover value points only; Count includes gaps.
type BlockInfo struct {
	Count      int
	ValueCount int
	FirstT     int64 // first point's timestamp (gaps included)
	LastT      int64 // last point's timestamp (gaps included)
	FirstVT    int64 // first value point's timestamp
	LastVT     int64 // last value point's timestamp
	FirstV     float64
	LastV      float64
	Min        float64
	Max        float64
	Sum        float64
}

// EncodeBlock seals pts into a block. Points are stored in slice order;
// appends are time-monotonic in Mantra, which is what makes the
// header's FirstT/LastT usable for range skipping.
func EncodeBlock(pts []Point) []byte {
	var w bitWriter
	var (
		prevT, prevDelta int64
		prevV            uint64
		prevLead         = ^uint(0) // no window yet
		prevTrail        uint
		haveV            bool
	)
	info := BlockInfo{Count: len(pts)}
	for i, pt := range pts {
		if pt.Gap {
			w.writeBit(1)
		} else {
			w.writeBit(0)
		}
		// Timestamp.
		if i == 0 {
			info.FirstT = pt.T
			w.writeBits(uint64(pt.T), 64)
			prevT = pt.T
		} else {
			delta := pt.T - prevT
			dod := delta - prevDelta
			switch {
			case dod == 0:
				w.writeBit(0)
			case dod >= math.MinInt32 && dod <= math.MaxInt32:
				w.writeBits(0b10, 2)
				w.writeBits(uint64(uint32((dod<<1)^(dod>>63))), 32)
			default:
				w.writeBits(0b11, 2)
				w.writeBits(uint64(dod), 64)
			}
			prevDelta = delta
			prevT = pt.T
		}
		info.LastT = pt.T
		if pt.Gap {
			continue
		}
		// Value.
		vb := math.Float64bits(pt.V)
		if !haveV {
			w.writeBits(vb, 64)
			haveV = true
			info.Min, info.Max, info.FirstV = pt.V, pt.V, pt.V
			info.FirstVT = pt.T
		} else {
			xor := vb ^ prevV
			if xor == 0 {
				w.writeBit(0)
			} else {
				w.writeBit(1)
				lead := uint(bits.LeadingZeros64(xor))
				trail := uint(bits.TrailingZeros64(xor))
				if prevLead != ^uint(0) && lead >= prevLead && trail >= prevTrail {
					w.writeBit(0)
					w.writeBits(xor>>prevTrail, 64-prevLead-prevTrail)
				} else {
					w.writeBit(1)
					sig := 64 - lead - trail
					w.writeBits(uint64(lead), 6)
					w.writeBits(uint64(sig-1), 6)
					w.writeBits(xor>>trail, sig)
					prevLead, prevTrail = lead, trail
				}
			}
			if pt.V < info.Min {
				info.Min = pt.V
			}
			if pt.V > info.Max {
				info.Max = pt.V
			}
		}
		prevV = vb
		info.ValueCount++
		info.Sum += pt.V
		info.LastV = pt.V
		info.LastVT = pt.T
	}
	stream := w.bytes()
	out := make([]byte, 0, 64+len(stream))
	out = append(out, blockVersion)
	out = seglog.AppendUvarint(out, uint64(info.Count))
	out = seglog.AppendUvarint(out, uint64(info.ValueCount))
	out = seglog.AppendU64(out, uint64(info.FirstT))
	out = seglog.AppendU64(out, uint64(info.LastT))
	out = seglog.AppendU64(out, uint64(info.FirstVT))
	out = seglog.AppendU64(out, uint64(info.LastVT))
	out = seglog.AppendU64(out, math.Float64bits(info.FirstV))
	out = seglog.AppendU64(out, math.Float64bits(info.LastV))
	out = seglog.AppendU64(out, math.Float64bits(info.Min))
	out = seglog.AppendU64(out, math.Float64bits(info.Max))
	out = seglog.AppendU64(out, math.Float64bits(info.Sum))
	out = seglog.AppendUvarint(out, uint64(len(stream)))
	out = append(out, stream...)
	return out
}

// decodeHeader reads the header, returning the info and the bitstream.
func decodeHeader(b []byte) (BlockInfo, []byte, error) {
	r := seglog.NewReader(b, ErrBadBlock)
	if v := r.Byte(); r.Err() == nil && v != blockVersion {
		return BlockInfo{}, nil, ErrBadBlock
	}
	var info BlockInfo
	count := r.Uvarint()
	values := r.Uvarint()
	info.Count = int(count)
	info.ValueCount = int(values)
	info.FirstT = int64(r.U64())
	info.LastT = int64(r.U64())
	info.FirstVT = int64(r.U64())
	info.LastVT = int64(r.U64())
	info.FirstV = math.Float64frombits(r.U64())
	info.LastV = math.Float64frombits(r.U64())
	info.Min = math.Float64frombits(r.U64())
	info.Max = math.Float64frombits(r.U64())
	info.Sum = math.Float64frombits(r.U64())
	streamLen := r.Uvarint()
	if r.Err() != nil {
		return BlockInfo{}, nil, r.Err()
	}
	// Sanity bounds: a count or length beyond what the buffer could
	// possibly hold is corruption, not a big block.
	if count > uint64(len(b))*8 || values > count || streamLen > uint64(len(b)) {
		return BlockInfo{}, nil, ErrBadBlock
	}
	if streamLen != uint64(len(r.Rest())) {
		return BlockInfo{}, nil, ErrBadBlock
	}
	return info, r.Rest(), nil
}

// DecodeBlockInfo decodes only the header — the sparse-index read path.
func DecodeBlockInfo(b []byte) (BlockInfo, error) {
	info, _, err := decodeHeader(b)
	return info, err
}

// DecodeBlock decodes a sealed block back into its points.
func DecodeBlock(b []byte) ([]Point, error) { return appendBlock(nil, b) }

// appendBlock decodes a sealed block and appends its points to pts: the
// one decode loop behind every reader, which passes a reused buffer
// where it can.
func appendBlock(pts []Point, b []byte) ([]Point, error) {
	info, stream, err := decodeHeader(b)
	if err != nil {
		return nil, err
	}
	r := newBitReader(stream, ErrBadBlock)
	pts = slices.Grow(pts, info.Count)
	var (
		prevT, prevDelta int64
		prevV            uint64
		prevLead         = ^uint(0)
		prevTrail        uint
		haveV            bool
		values           int
	)
	for i := 0; i < info.Count; i++ {
		var pt Point
		pt.Gap = r.readBit() == 1
		if i == 0 {
			pt.T = int64(r.readBits(64))
			prevT = pt.T
		} else {
			var dod int64
			if r.readBit() == 1 {
				if r.readBit() == 0 {
					zz := r.readBits(32)
					dod = int64(zz>>1) ^ -int64(zz&1)
				} else {
					dod = int64(r.readBits(64))
				}
			}
			prevDelta += dod
			prevT += prevDelta
			pt.T = prevT
		}
		if !pt.Gap {
			if !haveV {
				prevV = r.readBits(64)
				haveV = true
			} else if r.readBit() == 1 {
				var sig uint
				if r.readBit() == 0 {
					if prevLead == ^uint(0) {
						return nil, ErrBadBlock
					}
					sig = 64 - prevLead - prevTrail
				} else {
					lead := uint(r.readBits(6))
					sig = uint(r.readBits(6)) + 1
					if lead+sig > 64 {
						return nil, ErrBadBlock
					}
					prevLead, prevTrail = lead, 64-lead-sig
				}
				prevV ^= r.readBits(sig) << prevTrail
			}
			pt.V = math.Float64frombits(prevV)
			values++
		}
		if r.err != nil {
			return nil, r.err
		}
		pts = append(pts, pt)
	}
	if values != info.ValueCount {
		return nil, ErrBadBlock
	}
	return pts, nil
}
