package process

import (
	"bytes"
	"encoding/gob"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// encodeStability gob-encodes an exported tracker the way the checkpoint
// writer does.
func encodeStability(t *testing.T, st *StabilityState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStabilityExportStateDeterministicBytes(t *testing.T) {
	// Regression for the mantralint mapiter finding in ExportState:
	// Prefixes used to be appended in map-iteration order, so the
	// gob bytes that land in checkpoints differed run to run. Repeated
	// exports of the same tracker must now be byte-identical.
	rs := NewRouteStability()
	at := sim.Epoch
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			rs.Observe(rt("10.0.0.0/8", "11.0.0.0/8", "192.168.0.0/16", "172.16.0.0/12"), at)
		} else {
			rs.Observe(rt("10.0.0.0/8", "192.168.0.0/16"), at)
		}
		at = at.Add(30 * time.Minute)
	}
	first := encodeStability(t, rs.ExportState())
	for i := 0; i < 50; i++ {
		if got := encodeStability(t, rs.ExportState()); !bytes.Equal(got, first) {
			t.Fatalf("export %d: checkpoint bytes differ; map order leaked into the export", i)
		}
	}
	st := rs.ExportState()
	if !sort.SliceIsSorted(st.Prefixes, func(i, j int) bool { return st.Prefixes[i].Prefix.Compare(st.Prefixes[j].Prefix) < 0 }) {
		t.Error("Prefixes is not sorted by prefix")
	}
}

func TestStabilityExportImportRoundTripAfterSort(t *testing.T) {
	rs := NewRouteStability()
	at := sim.Epoch
	for i := 0; i < 4; i++ {
		rs.Observe(rt("10.0.0.0/8", "11.0.0.0/8"), at)
		at = at.Add(30 * time.Minute)
	}
	rs.Observe(rt("11.0.0.0/8"), at)
	got := StabilityFromState(rs.ExportState())
	if got.Cycles() != rs.Cycles() || got.TrackedPrefixes() != rs.TrackedPrefixes() {
		t.Fatalf("round trip: cycles=%d/%d prefixes=%d/%d",
			got.Cycles(), rs.Cycles(), got.TrackedPrefixes(), rs.TrackedPrefixes())
	}
	if got.Summary() != rs.Summary() {
		t.Fatalf("round trip summary = %+v, want %+v", got.Summary(), rs.Summary())
	}
}
