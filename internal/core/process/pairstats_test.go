package process

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

// refParticipants is the map-based Participant table derivation the
// sorted-run one replaced, entries in first-seen order.
func refParticipants(p tables.PairTable) tables.ParticipantTable {
	agg := make(map[addr.IP]*tables.ParticipantEntry)
	order := make([]addr.IP, 0)
	for _, e := range p {
		pe := agg[e.Source]
		if pe == nil {
			pe = &tables.ParticipantEntry{Host: e.Source, Since: e.Since}
			agg[e.Source] = pe
			order = append(order, e.Source)
		}
		pe.Groups++
		if e.RateKbps > pe.MaxRateKbps {
			pe.MaxRateKbps = e.RateKbps
		}
		if e.Since < pe.Since {
			pe.Since = e.Since
		}
	}
	out := make(tables.ParticipantTable, 0, len(agg))
	for _, h := range order {
		out = append(out, *agg[h])
	}
	return out
}

// refSessions is the map-based Session table derivation the sorted-run
// one replaced, entries in first-seen order.
func refSessions(p tables.PairTable) tables.SessionTable {
	protocolOf := func(flags string) string {
		if strings.Contains(flags, "S") {
			return "pim"
		}
		if strings.Contains(flags, "D") {
			return "dvmrp"
		}
		return "unknown"
	}
	agg := make(map[addr.IP]*tables.SessionEntry)
	order := make([]addr.IP, 0)
	for _, e := range p {
		se := agg[e.Group]
		if se == nil {
			se = &tables.SessionEntry{Group: e.Group, Protocol: protocolOf(e.Flags), Since: e.Since}
			agg[e.Group] = se
			order = append(order, e.Group)
		}
		se.Density++
		se.TotalRateKbps += e.RateKbps
		se.Packets += e.Packets
		if e.Since < se.Since {
			se.Since = e.Since
		}
		if se.Protocol != protocolOf(e.Flags) {
			se.Protocol = "mixed"
		}
	}
	out := make(tables.SessionTable, 0, len(agg))
	for _, g := range order {
		out = append(out, *agg[g])
	}
	return out
}

// refPairStats is the pair-derived part of ingest as it was computed
// from the two map-based tables.
func refPairStats(pairs tables.PairTable, threshold float64) CycleStats {
	var st CycleStats
	sessions, participants := refSessions(pairs), refParticipants(pairs)
	st.Sessions, st.Participants = len(sessions), len(participants)
	densitySum := 0
	for _, s := range sessions {
		densitySum += s.Density
		if s.Density == 1 {
			st.SingleMemberSessions++
		}
	}
	if st.Sessions > 0 {
		st.AvgDensity = float64(densitySum) / float64(st.Sessions)
	}
	for _, pe := range participants {
		if pe.MaxRateKbps > threshold {
			st.Senders++
		}
	}
	activeGroups := make(map[addr.IP]bool)
	unicastKbps := 0.0
	densityOf := make(map[addr.IP]int, len(sessions))
	for _, s := range sessions {
		densityOf[s.Group] = s.Density
	}
	for _, e := range pairs {
		st.BandwidthKbps += e.RateKbps
		if e.RateKbps > threshold {
			activeGroups[e.Group] = true
			receivers := densityOf[e.Group] - 1
			if receivers < 1 {
				receivers = 1
			}
			unicastKbps += e.RateKbps * float64(receivers)
		} else {
			unicastKbps += e.RateKbps
		}
	}
	st.ActiveSessions = len(activeGroups)
	if st.BandwidthKbps > 0 {
		st.SavedFactor = unicastKbps / st.BandwidthKbps
	}
	return st
}

// pairStatsKey renders the pair-derived fields of st, the floats as
// bits, so equal keys mean equal results bit for bit.
func pairStatsKey(st CycleStats) string {
	return fmt.Sprintf("sessions=%d single=%d participants=%d senders=%d active=%d density=%x bandwidth=%x saved=%x",
		st.Sessions, st.SingleMemberSessions, st.Participants, st.Senders, st.ActiveSessions,
		math.Float64bits(st.AvgDensity), math.Float64bits(st.BandwidthKbps), math.Float64bits(st.SavedFactor))
}

// tableKey renders a derived table with its floats as bits.
func tableKey[E tables.SessionEntry | tables.ParticipantEntry](rows []E) string {
	var b strings.Builder
	for _, r := range rows {
		switch r := any(r).(type) {
		case tables.SessionEntry:
			fmt.Fprintf(&b, "%v %d %x %d %s %v\n", r.Group, r.Density, math.Float64bits(r.TotalRateKbps), r.Packets, r.Protocol, r.Since)
		case tables.ParticipantEntry:
			fmt.Fprintf(&b, "%v %d %x %v\n", r.Host, r.Groups, math.Float64bits(r.MaxRateKbps), r.Since)
		}
	}
	return b.String()
}

// fuzzRates puts rates at, just below and just above the 4 kbps
// threshold, zeros of both signs, negative rates (which the parser
// takes) and values whose sums depend on the order they are added in.
var fuzzRates = [16]float64{
	0, math.Copysign(0, -1), DefaultSenderThresholdKbps,
	math.Nextafter(DefaultSenderThresholdKbps, 0), math.Nextafter(DefaultSenderThresholdKbps, 5),
	0.1, 0.2, 0.3, 1.5, -2, -64, 8, 64, 1e16, 1e-9, 1000.7,
}

var fuzzFlags = [8]string{"D", "S", "SJ", "DS", "C", "", "SPT", "D"}

// pairTablesFrom decodes the fuzzer's bytes into pair tables, four bytes
// a row: source, group, flags and rate, packets and Since. A source byte
// of 0xff ends a table; the first byte picks the sender threshold and
// whether the tables are sorted by (group, source) as a router lists them.
func pairTablesFrom(data []byte) (threshold float64, tabs []tables.PairTable) {
	if len(data) == 0 {
		return DefaultSenderThresholdKbps, []tables.PairTable{nil}
	}
	threshold = [4]float64{DefaultSenderThresholdKbps, DefaultSenderThresholdKbps, 0, -1}[data[0]&3]
	sorted := data[0]&4 != 0
	var cur tables.PairTable
	for data = data[1:]; len(data) >= 4; data = data[4:] {
		if data[0] == 0xff {
			tabs, cur = append(tabs, cur), nil
			continue
		}
		cur = append(cur, tables.PairEntry{
			Source:   addr.V4(10, 0, 0, data[0]&15),
			Group:    addr.V4(224, 0, 1, data[1]&15),
			Flags:    fuzzFlags[data[2]&7],
			RateKbps: fuzzRates[data[2]>>4],
			Packets:  uint64(data[3]) << 56,
			Since:    int64(data[3]&7) * int64(time.Hour),
		})
	}
	tabs = append(tabs, cur)
	if sorted {
		for _, t := range tabs {
			slices.SortStableFunc(t, func(a, b tables.PairEntry) int {
				return cmp.Or(cmp.Compare(a.Group, b.Group), cmp.Compare(a.Source, b.Source))
			})
		}
	}
	return threshold, tabs
}

// FuzzPairStats holds the sorted-run derivations to the map-based code
// they replaced, kept above as the reference: on random pair tables,
// unsorted or sorted, with duplicated (S,G) rows, single-member groups,
// rates at and around the sender threshold and D, S and mixed flags,
// Ingest's pair-derived CycleStats fields are the same bit for bit, the
// Session and Participant tables hold the same entries (in ascending
// address order rather than first-seen), and the summary tables are
// the same. One processor ingests every table of an input, so its
// scratch is reused across tables of any size.
func FuzzPairStats(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 0x30, 0})
	// Unsorted, with a duplicated (S,G) row and a single-member group.
	f.Add([]byte{0, 3, 2, 0x21, 1, 1, 2, 0x40, 2, 3, 2, 0x21, 3, 1, 5, 0xc0, 0})
	// The same rows sorted, then a second, smaller table.
	f.Add([]byte{4, 3, 2, 0x21, 1, 1, 2, 0x40, 2, 3, 2, 0x21, 3, 1, 5, 0xc0, 0, 0xff, 0, 0, 0, 2, 2, 0x52, 9})
	// A group whose rates sum differently in source order than in row
	// order, with mixed flags.
	f.Add([]byte{1, 9, 4, 0x50, 0, 8, 4, 0x61, 0, 7, 4, 0x73, 0, 9, 5, 0xd0, 0, 8, 6, 0xf6, 0})
	// A table whose bandwidth sums differently in group order than in
	// row order.
	f.Add([]byte{0, 0, 9, 0x50, 0, 0, 0, 0x30, 0, 0, 0, 0x41, 0})
	// A sender alone in its session, listed ahead of a larger one: its
	// unicast equivalent takes its own session's density.
	f.Add([]byte{0, 1, 2, 0xb0, 0, 2, 1, 0, 0, 3, 1, 0, 0, 4, 1, 0, 0})
	// A negative and a zero threshold: a participant's peak starts at 0,
	// so a host whose rates are all below a negative threshold sends.
	f.Add([]byte{3, 1, 1, 0x90, 0, 2, 1, 0x00, 0, 1, 2, 0xa0, 0})
	f.Add([]byte{2, 1, 1, 0x10, 0, 2, 1, 0x00, 0, 1, 2, 0x20, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		threshold, tabs := pairTablesFrom(data)
		p := New()
		p.SenderThresholdKbps = threshold
		for i, pairs := range tabs {
			want := refPairStats(pairs, threshold)
			sn := &tables.Snapshot{Target: "t", At: sim.Epoch.Add(time.Duration(i) * time.Minute), Pairs: pairs}
			if got := p.Ingest(sn); pairStatsKey(got) != pairStatsKey(want) {
				t.Fatalf("table %d %v:\n got %s\nwant %s", i, pairs, pairStatsKey(got), pairStatsKey(want))
			}

			ss, ps := refSessions(pairs), refParticipants(pairs)
			slices.SortFunc(ss, func(a, b tables.SessionEntry) int { return cmp.Compare(a.Group, b.Group) })
			slices.SortFunc(ps, func(a, b tables.ParticipantEntry) int { return cmp.Compare(a.Host, b.Host) })
			if got, want := tableKey(pairs.Sessions()), tableKey(ss); got != want {
				t.Fatalf("table %d sessions:\n got %s\nwant %s", i, got, want)
			}
			if got, want := tableKey(pairs.Participants()), tableKey(ps); got != want {
				t.Fatalf("table %d participants:\n got %s\nwant %s", i, got, want)
			}

			sort.Slice(ss, func(i, j int) bool {
				if ss[i].TotalRateKbps != ss[j].TotalRateKbps {
					return ss[i].TotalRateKbps > ss[j].TotalRateKbps
				}
				return ss[i].Group < ss[j].Group
			})
			sort.Slice(ps, func(i, j int) bool {
				if ps[i].MaxRateKbps != ps[j].MaxRateKbps {
					return ps[i].MaxRateKbps > ps[j].MaxRateKbps
				}
				return ps[i].Host < ps[j].Host
			})
			if got, want := tableKey(BusiestSessions(sn, 5)), tableKey(ss[:min(5, len(ss))]); got != want {
				t.Fatalf("table %d busiest sessions:\n got %s\nwant %s", i, got, want)
			}
			if got, want := tableKey(TopSenders(sn, 5)), tableKey(ps[:min(5, len(ps))]); got != want {
				t.Fatalf("table %d top senders:\n got %s\nwant %s", i, got, want)
			}
		}
	})
}
