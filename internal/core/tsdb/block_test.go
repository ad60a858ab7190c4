package tsdb

import (
	"math"
	"math/rand"
	"testing"
	"time"
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
// every single-byte flip and every truncation length — and requires the
// decoder to fail cleanly or return consistent data, never panic. The
// frame CRC normally screens corruption out, but the decoder is the
// last line of defense and must hold on its own.
func TestBlockDecodeNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	blk := EncodeBlock(genPoints(r, BlockPoints))
	for i := range blk {
		mut := append([]byte(nil), blk...)
		mut[i] ^= 0xff
		if pts, err := DecodeBlock(mut); err == nil {
			if info, ierr := DecodeBlockInfo(mut); ierr == nil && len(pts) != info.Count {
				t.Fatalf("flip %d: decoded %d points, header says %d", i, len(pts), info.Count)
			}
		}
	}
	for l := 0; l < len(blk); l++ {
		_, _ = DecodeBlock(blk[:l])
		_, _ = DecodeBlockInfo(blk[:l])
	}
}

// FuzzBlockDecode fuzzes the block decoder. The corpus is seeded with
// real sealed blocks: a store fed the same cycle-cadence counter shapes
// a WAL replay produces (values, bursts, resets, gap markers), plus a
// few deliberately broken variants.
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
	})
}

// TestReadBitsMatchesReadBit: readBits takes up to a byte at a time and
// must read what as many single-bit reads would, across byte boundaries
// and up to the end of the stream, where both latch the error.
func TestReadBitsMatchesReadBit(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	stream := make([]byte, 40)
	r.Read(stream)
	for trial := 0; trial < 200; trial++ {
		a, b := newBitReader(stream, ErrBadBlock), newBitReader(stream, ErrBadBlock)
		for a.err == nil {
			n := uint(r.Intn(65))
			got := a.readBits(n)
			var want uint64
			for i := uint(0); i < n; i++ {
				want = want<<1 | b.readBit()
			}
			if (a.err == nil) != (b.err == nil) || (a.err == nil && got != want) {
				t.Fatalf("trial %d, bit %d: readBits(%d) = %#x (err %v), single bits %#x (err %v)", trial, b.off, n, got, a.err, want, b.err)
			}
		}
	}
}
