package process

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// encodeStability renders an exported tracker field by field, slices in
// their order.
func encodeStability(t *testing.T, st *StabilityState) []byte {
	t.Helper()
	return fmt.Appendf(nil, "%#v", st)
}

func TestStabilityExportStateDeterministicBytes(t *testing.T) {
	// Regression for the PR 4 bug in ExportState:
	// Prefixes used to be appended in map-iteration order, so the
	// bytes an encoder wrote differed run to run. Repeated exports of
	// the same tracker must now be byte-identical.
	rs := NewRouteStability()
	at := sim.Epoch
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			rs.Observe(rt(at, "10.0.0.0/8", "11.0.0.0/8", "192.168.0.0/16", "172.16.0.0/12"), at)
		} else {
			rs.Observe(rt(at, "10.0.0.0/8", "192.168.0.0/16"), at)
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
