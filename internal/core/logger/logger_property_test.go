package logger

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/addr"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

// TestReconstructionPropertyRandomHistories verifies the logger's core
// invariant on randomized histories: for any sequence of snapshots,
// replaying deltas reproduces every cycle's tables exactly.
func TestReconstructionPropertyRandomHistories(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New()
		var history []*tables.Snapshot
		at := sim.Epoch

		// Evolving ground truth.
		pairs := map[addr.IP]tables.PairEntry{}
		routes := map[addr.Prefix]tables.RouteEntry{}

		for cycle := 0; cycle < 8; cycle++ {
			// Mutate: add/remove/change a few entries.
			for i := 0; i < 5; i++ {
				src := addr.V4(10, byte(rng.Intn(4)), byte(rng.Intn(4)), 1)
				switch rng.Intn(3) {
				case 0:
					pairs[src] = tables.PairEntry{
						Source: src, Group: addr.V4(224, 1, 1, 1),
						Flags: "D", RateKbps: float64(rng.Intn(100)),
						Since: at.UnixNano(),
					}
				case 1:
					delete(pairs, src)
				case 2:
					if e, ok := pairs[src]; ok {
						e.RateKbps++
						pairs[src] = e
					}
				}
				p := addr.PrefixFrom(addr.V4(byte(20+rng.Intn(4)), 0, 0, 0), 8)
				switch rng.Intn(3) {
				case 0:
					routes[p] = tables.RouteEntry{Prefix: p, Metric: 1 + rng.Intn(5), Since: at.UnixNano()}
				case 1:
					delete(routes, p)
				}
			}
			sn := &tables.Snapshot{Target: "t", At: at}
			for _, e := range pairs {
				sn.Pairs = append(sn.Pairs, e)
			}
			for _, e := range routes {
				sn.Routes = append(sn.Routes, e)
			}
			sortPairs(sn.Pairs)
			sortRoutes(sn.Routes)
			l.Append(sn)
			history = append(history, sn)
			at = at.Add(30 * time.Minute)
		}

		for i, want := range history {
			gotP, err := l.ReconstructPairs("t", i)
			if err != nil || !reflect.DeepEqual(gotP, want.Pairs) {
				if len(gotP) != 0 || len(want.Pairs) != 0 {
					return false
				}
			}
			gotR, err := l.ReconstructRoutes("t", i)
			if err != nil || !reflect.DeepEqual(gotR, want.Routes) {
				if len(gotR) != 0 || len(want.Routes) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWALRoundTripPropertyRandomHistories verifies the durability
// invariant on randomized multi-target histories with interleaved gap
// markers: for any sequence of snapshots and gaps pushed through the
// Store, a fresh open + Recover reconstructs every cycle's tables and
// every gap identically to the in-memory logger that produced them.
func TestWALRoundTripPropertyRandomHistories(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		// Tiny segments so rotation happens constantly; randomize sync.
		s, err := OpenStore(dir, StoreOptions{
			SegmentBytes:    int64(256 + rng.Intn(2048)),
			SyncEveryAppend: rng.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		l := New()
		targets := []string{"fixw", "ucsb", "dante"}
		histories := map[string][]*tables.Snapshot{}
		for _, tgt := range targets {
			histories[tgt] = genHistory(rng, tgt, 1+rng.Intn(8))
		}
		// Interleave appends across targets in random order, with gaps.
		type step struct {
			target string
			idx    int
		}
		var steps []step
		for tgt, h := range histories {
			for i := range h {
				steps = append(steps, step{tgt, i})
			}
		}
		sort.Slice(steps, func(i, j int) bool {
			if steps[i].idx != steps[j].idx {
				return steps[i].idx < steps[j].idx
			}
			return steps[i].target < steps[j].target
		})
		for _, st := range steps {
			sn := histories[st.target][st.idx]
			rec := l.Append(sn)
			if err := s.AppendDelta(sn.Target, rec, uint64(len(sn.Pairs)+len(sn.Routes))); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(4) == 0 {
				gt := targets[rng.Intn(len(targets))]
				l.MarkGap(gt, sn.At, "injected")
				if err := s.AppendGap(gt, sn.At, "injected"); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Occasionally checkpoint mid-stream so recovery exercises the
		// checkpoint + tail stitch too.
		if rng.Intn(2) == 0 {
			if err := s.WriteCheckpoint(l, nil, sim.Epoch); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		ra := s2.Recover()
		if ra.Stats.TornTail {
			return false
		}
		for _, tgt := range targets {
			if l.Cycles(tgt) != ra.Logger.Cycles(tgt) {
				return false
			}
			for i := 0; i < l.Cycles(tgt); i++ {
				wp, err1 := l.ReconstructPairs(tgt, i)
				gp, err2 := ra.Logger.ReconstructPairs(tgt, i)
				if err1 != nil || err2 != nil || !reflect.DeepEqual(wp, gp) {
					return false
				}
				wr, err1 := l.ReconstructRoutes(tgt, i)
				gr, err2 := ra.Logger.ReconstructRoutes(tgt, i)
				if err1 != nil || err2 != nil || !reflect.DeepEqual(wr, gr) {
					return false
				}
			}
			if !reflect.DeepEqual(l.Gaps(tgt), ra.Logger.Gaps(tgt)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
