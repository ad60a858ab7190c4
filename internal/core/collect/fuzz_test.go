package collect_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/router"
)

// faultySeeds collects real dumps from fault-injected routers — truncated
// and garbled CLI output as the session layer actually produces it — so
// the fuzzers start from the defect shapes the validators were built for.
func faultySeeds(t testing.TB) []string {
	n := testNetwork(t)
	var seeds []string
	for _, profile := range []router.FaultProfile{
		{Truncate: 1},
		{Garble: 1, GarblePerLine: 2},
		{Truncate: 1, TruncateAfter: 40},
	} {
		n.Router("fixw").Password = "pw"
		fr := n.FaultyRouter("fixw", profile)
		tgt := collect.Target{
			Name:     "fixw",
			Dialer:   collect.PipeDialer{Router: fr},
			Password: "pw",
			Prompt:   "fixw> ",
			Timeout:  2 * time.Second,
		}
		dumps, _ := collect.CollectAll(tgt, collect.StandardCommands, n.Now())
		for _, d := range dumps {
			seeds = append(seeds, d.Raw)
		}
	}
	return seeds
}

// FuzzValidateDump drives the structural validator with arbitrary bytes:
// it must classify, never panic, and never accept a dump that then breaks
// the invariants it guards (mid-line cuts, non-ASCII noise).
func FuzzValidateDump(f *testing.F) {
	for _, s := range faultySeeds(f) {
		f.Add("show ip dvmrp route", s)
	}
	f.Add("show ip dvmrp route", "")
	f.Add("show ip dvmrp route", "\r")
	f.Add("show version", "\r\n")
	f.Add("show ip dvmrp route", "DVMRP Routing Table - 1 entries\nOrigin\nrow\n")
	f.Add("show ip dvmrp route", "DVMRP Routing Table - 2 entries\r\nOrigin\r\n10.0.0.0/8 loc")
	f.Add("show ip igmp groups", "IGMP Group Membership - 1 groups, 2 members\nGroup\nr1\nr2\n")
	f.Add("show ip mroute", "fixw> fixw> \n")
	f.Add("show ip mbgp", "MBGP Table - 0 entries\n\r")
	f.Add("x", "\x00\x01\x02")
	f.Fuzz(func(t *testing.T, command, raw string) {
		err := collect.ValidateDump("fixw> ", command, raw)
		if err != nil {
			return
		}
		// Accepted dumps must uphold what the parsers assume: printable
		// ASCII and, when non-blank, a properly terminated final line.
		for i := 0; i < len(raw); i++ {
			c := raw[i]
			if c == '\n' || c == '\r' || c == '\t' {
				continue
			}
			if c < 0x20 || c > 0x7e {
				t.Fatalf("accepted dump with non-printable byte %#x: %q", c, raw)
			}
		}
		if strings.Trim(raw, " \t\r\n") != "" && !strings.HasSuffix(strings.TrimRight(raw, "\r"), "\n") {
			t.Fatalf("accepted dump cut mid-line: %q", raw)
		}
	})
}

// FuzzPrintable holds the word-at-a-time byte check to its definition,
// one byte at a time: printable ASCII, space, tab, CR or LF. The seeds put
// each byte at either side of a class boundary at every lane of a word
// and at every place in a tail of 0 to 7 bytes after it.
func FuzzPrintable(f *testing.F) {
	for _, c := range []byte{0x00, 0x09, 0x0a, 0x0b, 0x0d, 0x1f, 0x20, 0x7e, 0x7f, 0x80, 0xff} {
		for tail := 0; tail < 8; tail++ {
			for at := 0; at < 8+tail; at++ {
				b := []byte(strings.Repeat(" ~", 8)[:8+tail])
				b[at] = c
				f.Add(string(b))
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want := true
		for i := 0; i < len(raw); i++ {
			c := raw[i]
			want = want && (' ' <= c && c <= '~' || c == '\t' || c == '\r' || c == '\n')
		}
		if got := collect.Printable(raw); got != want {
			t.Fatalf("Printable(%q) = %v, want %v", raw, got, want)
		}
	})
}

// FuzzPreprocess checks the dump pre-processor on arbitrary input: no
// panics, every returned line trimmed and non-empty, and idempotence —
// re-joining the cleaned lines and pre-processing again must be a fixed
// point, since the parsers assume cleaned input stays cleaned.
func FuzzPreprocess(f *testing.F) {
	for _, s := range faultySeeds(f) {
		f.Add(s)
	}
	f.Add("")
	f.Add("\r\n\r\n")
	f.Add("  a   b\t c  \r\n% error\nnext\n")
	f.Add("one\n\rtwo\n\rthree")
	f.Fuzz(func(t *testing.T, raw string) {
		lines := collect.Preprocess(raw)
		for _, l := range lines {
			if l == "" || l != strings.Join(strings.Fields(l), " ") {
				t.Fatalf("unnormalized line %q from %q", l, raw)
			}
		}
		again := collect.Preprocess(strings.Join(lines, "\n"))
		if len(again) != len(lines) {
			t.Fatalf("preprocess not idempotent: %d then %d lines", len(lines), len(again))
		}
		for i := range lines {
			if lines[i] != again[i] {
				t.Fatalf("preprocess not idempotent at line %d: %q vs %q", i, lines[i], again[i])
			}
		}
	})
}
