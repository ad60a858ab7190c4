package tsdb

// The implementations this package replaced, kept as the references its
// property tests and fuzz targets compare against: the bit-at-a-time
// block decoder, and the downsample tiers the store kept as bucket
// arrays folded on every append.

import (
	"math"
	"slices"
)

// refBitReader consumes bits MSB-first a bit (or up to a byte) at a
// time, latching the first out-of-bounds read as ErrBadBlock.
type refBitReader struct {
	b   []byte
	off uint // bit offset from the start
	err error
}

func (r *refBitReader) readBit() uint64 {
	if r.err != nil {
		return 0
	}
	if int(r.off/8) >= len(r.b) {
		r.err = ErrBadBlock
		return 0
	}
	bit := (r.b[r.off/8] >> (7 - r.off%8)) & 1
	r.off++
	return uint64(bit)
}

func (r *refBitReader) readBits(n uint) uint64 {
	var v uint64
	for n > 0 {
		if r.err != nil {
			return 0
		}
		if int(r.off/8) >= len(r.b) {
			r.err = ErrBadBlock
			return 0
		}
		left := 8 - r.off%8 // unread bits in the current byte
		take := min(left, n)
		v = v<<take | uint64(r.b[r.off/8]>>(left-take))&(1<<take-1)
		r.off += take
		n -= take
	}
	return v
}

// refAppendBlock is the bit-at-a-time decode loop appendBlock replaced.
func refAppendBlock(pts []Point, b []byte) ([]Point, error) {
	info, stream, err := decodeHeader(b)
	if err != nil {
		return nil, err
	}
	r := &refBitReader{b: stream}
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

// refBucket is one stored tier entry: the summary of tier consecutive
// points, bucket k holding absolute indices [k·tier, (k+1)·tier).
type refBucket struct {
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

// refTiers folds every point of a series, in append order, into the
// bucket array of one tier, as the store's appends once did.
func refTiers(pts []Point, tier int) []refBucket {
	var out []refBucket
	for i, pt := range pts {
		if i/tier == len(out) {
			out = append(out, refBucket{})
		}
		b := &out[len(out)-1]
		if b.Count+b.Gaps == 0 {
			b.FirstT = pt.T
		}
		b.LastT = pt.T
		if pt.Gap {
			b.Gaps++
			continue
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
	return out
}

// refTierRange emits one averaged point per bucket whose first
// timestamp falls in [lo, hi]; buckets holding only gaps become gap
// points.
func refTierRange(buckets []refBucket, lo, hi int64) []Point {
	var out []Point
	for i := range buckets {
		b := &buckets[i]
		if b.FirstT < lo || b.FirstT > hi {
			continue
		}
		if b.Count == 0 {
			out = append(out, Point{T: b.FirstT, Gap: true})
			continue
		}
		out = append(out, Point{T: b.FirstT, V: b.Sum / float64(b.Count)})
	}
	return out
}
