package tsdb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core/seglog"
)

// genPoints produces a randomized series shaped like the monitor's
// metrics: a mostly regular cycle cadence with occasional irregular
// jumps, counter-like growth, counter resets, constant runs, large
// magnitudes and gap markers.
func genPoints(r *rand.Rand, n int) []Point {
	t := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	v := float64(r.Intn(2000))
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		if r.Intn(10) == 0 {
			t += int64(1+r.Intn(7200)) * 1e9 // irregular jump
		} else {
			t += 1800 * 1e9 // the paper's 30-minute cadence
		}
		if r.Intn(12) == 0 {
			pts = append(pts, Point{T: t, Gap: true})
			continue
		}
		switch r.Intn(8) {
		case 0:
			v = 0 // counter reset
		case 1:
			v += float64(r.Intn(500)) // counter burst
		case 2:
			v = float64(r.Intn(10)) * 1e6 // magnitude change
		case 3:
			// constant run: keep v
		default:
			v += float64(r.Intn(7)) - 3 // small drift
			if v < 0 {
				v = 0
			}
		}
		pts = append(pts, Point{T: t, V: v})
	}
	return pts
}

func pointsEqual(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || a[i].Gap != b[i].Gap {
			return false
		}
		// Bit-exact value comparison: losslessness is the contract.
		if math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
			return false
		}
	}
	return true
}

// TestBlockRoundTripProperty encodes and decodes randomized series
// across many seeds and sizes and demands bit-exact reconstruction plus
// a header that agrees with the points.
func TestBlockRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(2*BlockPoints)
		pts := genPoints(r, n)
		blk := EncodeBlock(pts)
		got, err := DecodeBlock(blk)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !pointsEqual(pts, got) {
			t.Fatalf("seed %d: round trip mismatch (%d points)", seed, n)
		}
		info, err := DecodeBlockInfo(blk)
		if err != nil {
			t.Fatalf("seed %d: info: %v", seed, err)
		}
		checkInfo(t, seed, pts, info)
	}
}

// checkInfo recomputes the header fields from the points.
func checkInfo(t *testing.T, seed int64, pts []Point, info BlockInfo) {
	t.Helper()
	if info.Count != len(pts) {
		t.Fatalf("seed %d: count %d != %d", seed, info.Count, len(pts))
	}
	if info.FirstT != pts[0].T || info.LastT != pts[len(pts)-1].T {
		t.Fatalf("seed %d: time bounds wrong", seed)
	}
	values := 0
	var min, max, sum, first, last float64
	var firstVT, lastVT int64
	for _, pt := range pts {
		if pt.Gap {
			continue
		}
		if values == 0 {
			min, max, first, firstVT = pt.V, pt.V, pt.V, pt.T
		} else {
			if pt.V < min {
				min = pt.V
			}
			if pt.V > max {
				max = pt.V
			}
		}
		values++
		sum += pt.V
		last, lastVT = pt.V, pt.T
	}
	if info.ValueCount != values {
		t.Fatalf("seed %d: value count %d != %d", seed, info.ValueCount, values)
	}
	if values == 0 {
		return
	}
	if info.Min != min || info.Max != max || info.Sum != sum {
		t.Fatalf("seed %d: aggregates wrong: %+v", seed, info)
	}
	if info.FirstV != first || info.LastV != last || info.FirstVT != firstVT || info.LastVT != lastVT {
		t.Fatalf("seed %d: endpoints wrong: %+v", seed, info)
	}
}

// TestBlockEdgeCases pins the shapes the property generator can miss.
func TestBlockEdgeCases(t *testing.T) {
	cases := map[string][]Point{
		"single value":    {{T: 1e18, V: 42}},
		"single gap":      {{T: 1e18, Gap: true}},
		"all gaps":        {{T: 1e18, Gap: true}, {T: 1e18 + 1800e9, Gap: true}, {T: 1e18 + 3600e9, Gap: true}},
		"same timestamp":  {{T: 1e18, V: 1}, {T: 1e18, V: 2}},
		"zero values":     {{T: 1e18, V: 0}, {T: 1e18 + 1, V: 0}, {T: 1e18 + 2, V: 0}},
		"negative values": {{T: 1e18, V: -12.5}, {T: 1e18 + 1800e9, V: -0.0001}},
		"tiny deltas":     {{T: 1, V: 1}, {T: 2, V: 1.0000000001}, {T: 3, V: 1}},
		"full block":      genPoints(rand.New(rand.NewSource(99)), BlockPoints),
	}
	for name, pts := range cases {
		blk := EncodeBlock(pts)
		got, err := DecodeBlock(blk)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !pointsEqual(pts, got) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

// TestBlockDecodeNeverPanics exhaustively corrupts an encoded block —
// every single-byte flip, every truncation length, and every length of
// its bitstream under a header that agrees — and requires the decoder
// to fail cleanly or return consistent data, never panic, and to answer
// as the bit-at-a-time reference decoder does. The frame CRC normally
// screens corruption out, but the decoder is the last line of defense
// and must hold on its own.
func TestBlockDecodeNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	blk := EncodeBlock(genPoints(r, BlockPoints))
	same := func(what string, b []byte) {
		t.Helper()
		pts, err := DecodeBlock(b)
		want, werr := refAppendBlock(nil, b)
		if err != werr || !pointsEqual(pts, want) {
			t.Fatalf("%s: decoded %d points (err %v), reference %d (err %v)", what, len(pts), err, len(want), werr)
		}
		if err == nil {
			if info, ierr := DecodeBlockInfo(b); ierr == nil && len(pts) != info.Count {
				t.Fatalf("%s: decoded %d points, header says %d", what, len(pts), info.Count)
			}
		}
	}
	for i := range blk {
		mut := append([]byte(nil), blk...)
		mut[i] ^= 0xff
		same(fmt.Sprintf("flip %d", i), mut)
	}
	for l := 0; l < len(blk); l++ {
		same(fmt.Sprintf("truncate %d", l), blk[:l])
		_, _ = DecodeBlockInfo(blk[:l])
	}
	info, stream, err := decodeHeader(blk)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < len(stream); l++ {
		same(fmt.Sprintf("stream %d", l), reframe(info, stream[:l]))
	}
	for name, b := range craftedBlocks() {
		same(name, b)
	}
}

// craftedBlocks are bitstreams no encoder writes, each tripping one of
// the decode loop's checks on its second point: a value that reuses the
// XOR window before one was set, and a new window wider than 64 bits.
func craftedBlocks() map[string][]byte {
	second := func(ctl, bits uint64, n uint) []byte {
		var w bitWriter
		w.writeBits(0, 1)           // point 0: a value
		w.writeBits(1e18, 64)       // its timestamp
		w.writeBits(1<<62, 64)      // its value bits
		w.writeBits(0, 2)           // point 1: a value, the delta repeats
		w.writeBits(ctl, 2)         // value control
		w.writeBits(bits, n)        // what follows it
		w.writeBits(^uint64(0), 64) // and enough stream to read on
		return reframe(BlockInfo{Count: 2, ValueCount: 2}, w.b)
	}
	return map[string][]byte{
		"window reused before set": second(0b10, 0x5, 8),
		"window wider than 64":     second(0b11, 40<<6|40, 12),
	}
}

// reframe builds a block from a header and a bitstream that need not
// agree with it, as EncodeBlock lays them out.
func reframe(info BlockInfo, stream []byte) []byte {
	out := []byte{blockVersion}
	out = seglog.AppendUvarint(out, uint64(info.Count))
	out = seglog.AppendUvarint(out, uint64(info.ValueCount))
	for _, v := range []int64{info.FirstT, info.LastT, info.FirstVT, info.LastVT} {
		out = seglog.AppendU64(out, uint64(v))
	}
	for _, v := range []float64{info.FirstV, info.LastV, info.Min, info.Max, info.Sum} {
		out = seglog.AppendU64(out, math.Float64bits(v))
	}
	out = seglog.AppendUvarint(out, uint64(len(stream)))
	return append(out, stream...)
}

// FuzzBlockDecode fuzzes the block decoder against the bit-at-a-time
// decoder it replaced: on any bytes both return the same points, bit
// for bit, or both ErrBadBlock. The corpus is seeded with real sealed
// blocks: a store fed the same cycle-cadence counter shapes a WAL
// replay produces (values, bursts, resets, gap markers), plus a few
// deliberately broken variants.
func FuzzBlockDecode(f *testing.F) {
	st := New()
	r := rand.New(rand.NewSource(2001))
	for _, target := range []string{"fixw", "ucsb-r1"} {
		for _, pt := range genPoints(r, 3*BlockPoints) {
			if pt.Gap {
				st.AppendGap(target, "routes", pt.T)
			} else {
				st.Append(target, "routes", pt.T, pt.V)
			}
		}
		sr := st.lookup(target, "routes")
		for _, blk := range sr.blocks {
			f.Add(append([]byte(nil), blk...))
		}
	}
	// Bitstreams that end early under a header that agrees on their
	// length, and flipped bits: the decode loop's own checks.
	edge := EncodeBlock(genPoints(rand.New(rand.NewSource(5)), BlockPoints))
	info, stream, err := decodeHeader(edge)
	if err != nil {
		f.Fatal(err)
	}
	for _, cut := range []int{len(stream) - 1, len(stream) - 9, len(stream) / 2, 5} {
		f.Add(reframe(info, stream[:cut]))
	}
	for _, at := range []int{len(stream) - 1, len(stream) - 40, len(stream) / 3} {
		flip := append([]byte(nil), stream...)
		flip[at] ^= 0x5a
		f.Add(reframe(info, flip))
	}
	for _, b := range craftedBlocks() {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{blockVersion})
	short := EncodeBlock([]Point{{T: 5, V: 5}})
	f.Add(short[:len(short)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		info, ierr := DecodeBlockInfo(data)
		pts, derr := DecodeBlock(data)
		if (ierr == nil) != (derr == nil) && derr == nil {
			t.Fatalf("block decoded but header did not: %v", ierr)
		}
		if derr == nil && len(pts) != info.Count {
			t.Fatalf("decoded %d points, header says %d", len(pts), info.Count)
		}
		want, werr := refAppendBlock(nil, data)
		if derr != werr {
			t.Fatalf("decode error %v, reference decoder %v", derr, werr)
		}
		if !pointsEqual(pts, want) {
			t.Fatalf("decoded %d points, reference decoder %d, and they differ", len(pts), len(want))
		}
	})
}

// TestBlockHeaderSumInTimeOrder encodes values whose magnitudes differ
// by sixteen orders, so any change in the order of the header's sum
// moves its low bits. Fully-contained blocks answer aggregates from that
// sum, so it must be the time-order sum, and the block's bytes the same
// on every encode.
func TestBlockHeaderSumInTimeOrder(t *testing.T) {
	vals := []float64{1e16, 1.0, -1e16, 0.25, 3.5e-3, 7e9, -7e9, 0.125}
	var pts []Point
	sum := 0.0
	for i, v := range vals {
		pts = append(pts, Point{T: int64(i) * 1e9, V: v})
		sum += v
	}
	want := EncodeBlock(pts)
	info, err := DecodeBlockInfo(want)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(info.Sum) != math.Float64bits(sum) {
		t.Fatalf("header sum %v, want %v summed in time order", info.Sum, sum)
	}
	for i := 0; i < 100; i++ {
		if got := EncodeBlock(pts); !bytes.Equal(got, want) {
			t.Fatalf("encode %d of the same points differs", i)
		}
	}
}
