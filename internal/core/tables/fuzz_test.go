package tables_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/addr"
	"repro/internal/core/collect"
	"repro/internal/core/tables"
	"repro/internal/netsim"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/testfault"
	"repro/internal/topo"
	"repro/internal/workload"
)

// ---- the reference -------------------------------------------------
//
// What follows, down to refBuildSnapshot, is tables.BuildSnapshot and
// the five line-slice parsers as they stood before the one-pass scanner:
// collect.Preprocess to a []string, strings.Fields per row,
// strings.Split per uptime, Preprocess again for the header count. It is
// kept verbatim as the oracle FuzzBuildSnapshot compares against, with
// two deliberate edits, marked "sanctioned divergence" below: the old
// parseUptime took signed numerals ("0:+5:07") because strconv.Atoi
// does, and the scanner takes digits only (addresses and prefix lengths
// had the same hole; internal/addr's FuzzParse holds that half); and the
// old parsers kept a route table that lists a prefix twice and a pair
// table that lists an (S,G) twice, which the scanner rejects (see
// refTwice). The route and pair parsers also follow the rows' later
// shape: no Uptime field, and Since the snapshot's At in Unix
// nanoseconds less the uptime, set as each row is parsed rather than in
// a pass over both tables at the end.

func refParseUptime(s string) (time.Duration, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, fmt.Errorf("tables: malformed uptime %q", s)
	}
	h, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	sec, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || m > 59 || sec > 59 || h < 0 || m < 0 || sec < 0 {
		return 0, fmt.Errorf("tables: malformed uptime %q", s)
	}
	// Sanctioned divergence: a sign is no longer part of a numeral.
	for _, p := range parts {
		if p[0] == '+' || p[0] == '-' {
			return 0, fmt.Errorf("tables: malformed uptime %q", s)
		}
	}
	return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute + time.Duration(sec)*time.Second, nil
}

func refHeaderCount(line string) (int, bool) {
	i := strings.LastIndex(line, "- ")
	if i < 0 {
		return 0, false
	}
	fields := strings.Fields(line[i+2:])
	if len(fields) < 1 {
		return 0, false
	}
	n, err := strconv.Atoi(fields[0])
	return n, err == nil
}

// refTwice is the second sanctioned divergence: a table that lists a key
// twice is an error naming the key. A row whose key equals the row's
// before it fails where it stands, ahead of any later malformed row; in
// a table that only repeats a key further apart, the least such key is
// named once every row has parsed.
func refTwice[E any](rows []E, key func(E) string, less func(a, b E) bool, twice func(E) error) error {
	seen := make(map[string]E)
	var least *E
	for _, e := range rows {
		if _, ok := seen[key(e)]; ok && (least == nil || less(e, *least)) {
			least = &e
		}
		seen[key(e)] = e
	}
	if least != nil {
		return twice(*least)
	}
	return nil
}

func refRouteTwice(e tables.RouteEntry) error {
	return fmt.Errorf("tables: dvmrp prefix %s listed twice", e.Prefix)
}

func refPairTwice(e tables.PairEntry) error {
	return fmt.Errorf("tables: mroute (S,G) (%s, %s) listed twice", e.Source, e.Group)
}

func refParseDVMRPRoutes(lines []string, at time.Time) (tables.RouteTable, error) {
	var out tables.RouteTable
	for _, line := range lines {
		if strings.HasPrefix(line, "DVMRP Routing Table") || strings.HasPrefix(line, "Origin-Subnet") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("tables: dvmrp row %q has %d fields", line, len(f))
		}
		p, err := addr.ParsePrefix(f[0])
		if err != nil {
			return nil, err
		}
		e := tables.RouteEntry{Prefix: p}
		if f[1] == "local" {
			e.Local = true
		} else {
			gw, err := addr.Parse(f[1])
			if err != nil {
				return nil, err
			}
			e.Gateway = gw
		}
		if e.Metric, err = strconv.Atoi(f[2]); err != nil {
			return nil, fmt.Errorf("tables: dvmrp metric %q", f[2])
		}
		up, err := refParseUptime(f[3])
		if err != nil {
			return nil, err
		}
		e.Since = at.UnixNano() - int64(up)
		// Sanctioned divergence: a prefix listed twice.
		if n := len(out); n > 0 && out[n-1].Prefix == e.Prefix {
			return nil, refRouteTwice(e)
		}
		out = append(out, e)
	}
	return out, refTwice(out, func(e tables.RouteEntry) string { return e.Prefix.String() },
		func(a, b tables.RouteEntry) bool { return a.Prefix.Compare(b.Prefix) < 0 }, refRouteTwice)
}

func refParseMroute(lines []string, at time.Time) (tables.PairTable, error) {
	var out tables.PairTable
	for _, line := range lines {
		if strings.HasPrefix(line, "IP Multicast Forwarding Table") || strings.HasPrefix(line, "Source ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 8 {
			return nil, fmt.Errorf("tables: mroute row %q has %d fields", line, len(f))
		}
		src, err := addr.Parse(f[0])
		if err != nil {
			return nil, err
		}
		grp, err := addr.Parse(f[1])
		if err != nil {
			return nil, err
		}
		rate, err := strconv.ParseFloat(f[5], 64)
		if err != nil || math.IsNaN(rate) || math.IsInf(rate, 0) {
			return nil, fmt.Errorf("tables: mroute rate %q", f[5])
		}
		pkts, err := strconv.ParseUint(f[6], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tables: mroute packets %q", f[6])
		}
		up, err := refParseUptime(f[7])
		if err != nil {
			return nil, err
		}
		e := tables.PairEntry{
			Source: src, Group: grp, Flags: f[2],
			RateKbps: rate, Packets: pkts, Since: at.UnixNano() - int64(up),
		}
		// Sanctioned divergence: an (S,G) listed twice.
		if n := len(out); n > 0 && out[n-1].Source == src && out[n-1].Group == grp {
			return nil, refPairTwice(e)
		}
		out = append(out, e)
	}
	return out, refTwice(out, func(e tables.PairEntry) string { return fmt.Sprint(e.Source, e.Group) },
		func(a, b tables.PairEntry) bool {
			return a.Group < b.Group || a.Group == b.Group && a.Source < b.Source
		}, refPairTwice)
}

func refParseIGMP(lines []string) ([]tables.IGMPEntry, error) {
	var out []tables.IGMPEntry
	for _, line := range lines {
		if strings.HasPrefix(line, "IGMP Group Membership") || strings.HasPrefix(line, "Group ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("tables: igmp row %q", line)
		}
		g, err := addr.Parse(f[0])
		if err != nil {
			return nil, err
		}
		h, err := addr.Parse(f[1])
		if err != nil {
			return nil, err
		}
		up, err := refParseUptime(f[2])
		if err != nil {
			return nil, err
		}
		out = append(out, tables.IGMPEntry{Group: g, Host: h, Uptime: up})
	}
	return out, nil
}

func refParseMSDP(lines []string) ([]tables.SAEntry, error) {
	var out []tables.SAEntry
	for _, line := range lines {
		if strings.HasPrefix(line, "MSDP Source-Active Cache") || strings.HasPrefix(line, "Source ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("tables: msdp row %q", line)
		}
		s, err := addr.Parse(f[0])
		if err != nil {
			return nil, err
		}
		g, err := addr.Parse(f[1])
		if err != nil {
			return nil, err
		}
		var rp addr.IP
		if f[2] != "-" {
			if rp, err = addr.Parse(f[2]); err != nil {
				return nil, err
			}
		}
		up, err := refParseUptime(f[3])
		if err != nil {
			return nil, err
		}
		out = append(out, tables.SAEntry{Source: s, Group: g, OriginRP: rp, Uptime: up})
	}
	return out, nil
}

func refParseMBGP(lines []string) ([]tables.MBGPEntry, error) {
	var out []tables.MBGPEntry
	for _, line := range lines {
		if strings.HasPrefix(line, "MBGP Table") || strings.HasPrefix(line, "Network ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			return nil, fmt.Errorf("tables: mbgp row %q", line)
		}
		p, err := addr.ParsePrefix(f[0])
		if err != nil {
			return nil, err
		}
		e := tables.MBGPEntry{Prefix: p}
		if f[1] == "local" {
			e.Local = true
		} else if e.NextHop, err = addr.Parse(f[1]); err != nil {
			return nil, err
		}
		if e.Uptime, err = refParseUptime(f[2]); err != nil {
			return nil, err
		}
		for _, as := range f[3:] {
			v, err := strconv.Atoi(as)
			if err != nil {
				return nil, fmt.Errorf("tables: mbgp AS %q", as)
			}
			e.ASPath = append(e.ASPath, v)
		}
		out = append(out, e)
	}
	return out, nil
}

func refBuildSnapshot(dumps []collect.Dump) (*tables.Snapshot, error) {
	if len(dumps) == 0 {
		return nil, fmt.Errorf("tables: no dumps")
	}
	sn := &tables.Snapshot{Target: dumps[0].Target, At: dumps[0].At}
	for _, d := range dumps {
		if d.Target != sn.Target {
			return nil, fmt.Errorf("tables: mixed targets %q and %q", sn.Target, d.Target)
		}
		lines := collect.Preprocess(d.Raw)
		var err error
		switch d.Command {
		case "show ip dvmrp route":
			sn.Routes, err = refParseDVMRPRoutes(lines, sn.At)
		case "show ip mroute":
			sn.Pairs, err = refParseMroute(lines, sn.At)
		case "show ip igmp groups":
			sn.IGMP, err = refParseIGMP(lines)
		case "show ip msdp sa-cache":
			sn.SAs, err = refParseMSDP(lines)
		case "show ip mbgp":
			sn.MBGP, err = refParseMBGP(lines)
		}
		if err != nil {
			return nil, fmt.Errorf("tables: %s %q: %w", d.Target, d.Command, err)
		}
	}
	for _, d := range dumps {
		lines := collect.Preprocess(d.Raw)
		if len(lines) == 0 {
			continue
		}
		want, ok := refHeaderCount(lines[0])
		if !ok {
			continue
		}
		var got int
		switch d.Command {
		case "show ip dvmrp route":
			got = len(sn.Routes)
		case "show ip mroute":
			got = len(sn.Pairs)
		case "show ip msdp sa-cache":
			got = len(sn.SAs)
		case "show ip mbgp":
			got = len(sn.MBGP)
		default:
			continue
		}
		if got != want {
			return nil, fmt.Errorf("tables: %s %q truncated: header says %d entries, parsed %d",
				d.Target, d.Command, want, got)
		}
	}
	return sn, nil
}

// refValidateDump and refValidateDumps are collect.ValidateDump and
// ValidateDumps as they stood when they ran as a pass of their own ahead
// of BuildSnapshot, kept verbatim but for their comments and the
// sentinels' package: with refBuildSnapshot they are the oracle ScanDumps
// is held to.
var refHeaderCountRE = regexp.MustCompile(`- (\d+) (entries|neighbors|groups)(?:, (\d+) members)?$`)

var refTableHeaders = map[string]string{
	"show ip dvmrp route":    "DVMRP Routing Table",
	"show ip dvmrp neighbor": "DVMRP Neighbor Table",
	"show ip mroute":         "IP Multicast Forwarding Table",
	"show ip igmp groups":    "IGMP Group Membership",
	"show ip pim group":      "PIM Group Table",
	"show ip pim neighbor":   "PIM Neighbor Table",
	"show ip msdp sa-cache":  "MSDP Source-Active Cache",
	"show ip mbgp":           "MBGP Table",
}

func refValidateDump(prompt, command, raw string) error {
	ErrTruncated, ErrGarbled := collect.ErrTruncated, collect.ErrGarbled
	header, known := refTableHeaders[command]
	if strings.Trim(raw, " \t\r\n") == "" {
		if known {
			return fmt.Errorf("%w: empty %q dump", ErrTruncated, command)
		}
		return nil
	}
	if !strings.HasSuffix(strings.TrimRight(raw, "\r"), "\n") {
		return fmt.Errorf("%w: %q output cut mid-line", ErrTruncated, command)
	}
	if prompt != "" && strings.Contains(raw, prompt) {
		return fmt.Errorf("%w: prompt echo inside %q dump", ErrGarbled, command)
	}
	var first string
	total := 0
	start := 0
	blank := true
	for i := 0; i <= len(raw); i++ {
		c := byte('\n')
		if i < len(raw) {
			c = raw[i]
		}
		switch {
		case c == '\n':
			if !blank {
				if total == 0 {
					first = strings.TrimRight(raw[start:i], "\r")
				}
				total++
			}
			start = i + 1
			blank = true
		case c == '\r' || c == '\t' || c == ' ':
		case c < 0x20 || c > 0x7e:
			return fmt.Errorf("%w: non-printable byte in %q dump", ErrGarbled, command)
		default:
			blank = false
		}
	}
	if !known {
		return nil
	}
	if total == 0 {
		return fmt.Errorf("%w: empty %q dump", ErrTruncated, command)
	}
	if !strings.HasPrefix(first, header) {
		return fmt.Errorf("%w: %q header mangled: %q", ErrGarbled, command, first)
	}
	m := refHeaderCountRE.FindStringSubmatch(first)
	if m == nil {
		return fmt.Errorf("%w: %q header count unreadable: %q", ErrGarbled, command, first)
	}
	declared, _ := strconv.Atoi(m[1])
	if m[3] != "" {
		declared, _ = strconv.Atoi(m[3])
	}
	if declared == 0 {
		return nil
	}
	rows := total - 2
	if rows < declared {
		return fmt.Errorf("%w: %q table has %d of %d declared rows", ErrTruncated, command, rows, declared)
	}
	if rows > declared {
		return fmt.Errorf("%w: %q table has %d rows against %d declared", ErrGarbled, command, rows, declared)
	}
	return nil
}

func refValidateDumps(prompt string, dumps []collect.Dump) error {
	for _, d := range dumps {
		if err := refValidateDump(prompt, d.Command, d.Raw); err != nil {
			return err
		}
	}
	return nil
}

// ---- the differential ------------------------------------------------

// fuzzCommands are the six standard commands plus one BuildSnapshot does
// not know.
var fuzzCommands = append(append([]string(nil), collect.StandardCommands...), "show clock")

func fuzzDump(cmd uint8, raw string) collect.Dump {
	return collect.Dump{Target: "r", Command: fuzzCommands[int(cmd)%len(fuzzCommands)], Raw: raw, At: sim.Epoch}
}

// fuzzPrompt is the prompt ScanDumps looks for in the fuzzed dumps.
const fuzzPrompt = "r> "

// sameAsReference fails t unless ScanDumps' defect has the text and the
// errors.Is class of refValidateDumps' error, and, over ASCII dumps,
// BuildSnapshot and ScanDumps agree with refBuildSnapshot on the snapshot
// (reflect.DeepEqual, so nil and empty tables differ) and on the error
// text. A byte past ASCII garbles the capture whatever its fields, so
// where the scanner cuts them there (as ASCII white space, not as
// strings.Fields' Unicode white space) is not held to the reference.
func sameAsReference(t *testing.T, dumps []collect.Dump) {
	t.Helper()
	got, gotErr, defect := tables.ScanDumps(fuzzPrompt, dumps)
	wantDefect := refValidateDumps(fuzzPrompt, dumps)
	same(t, "ScanDumps defect", dumps, nil, nil, defect, wantDefect)
	same(t, "ValidateDumps", dumps, nil, nil, collect.ValidateDumps(fuzzPrompt, dumps), wantDefect)
	for _, class := range []error{collect.ErrTruncated, collect.ErrGarbled} {
		if errors.Is(defect, class) != errors.Is(wantDefect, class) {
			t.Fatalf("ScanDumps: defect class differs on %v\n got: %v\nwant: %v\ndumps: %q", class, defect, wantDefect, dumps)
		}
	}
	for _, d := range dumps {
		if strings.IndexFunc(d.Raw, func(c rune) bool { return c >= utf8.RuneSelf }) >= 0 {
			return
		}
	}
	want, wantErr := refBuildSnapshot(dumps)
	same(t, "ScanDumps", dumps, got, want, gotErr, wantErr)
	got, gotErr = tables.BuildSnapshot(dumps)
	same(t, "BuildSnapshot", dumps, got, want, gotErr, wantErr)
}

func same(t *testing.T, name string, dumps []collect.Dump, got, want *tables.Snapshot, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error differs\n got: %v\nwant: %v\ndumps: %q", name, gotErr, wantErr, dumps)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: snapshot differs\n got: %+v\nwant: %+v\ndumps: %q", name, got, want, dumps)
	}
}

// realDumps scrapes all six standard commands from two routers of a
// small simulated internetwork — the exchange point and a domain border
// — cleanly, and through a FaultyRouter that truncates and one that
// garbles.
func realDumps(tb testing.TB) []collect.Dump {
	tb.Helper()
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 3
	inet := topo.BuildInternet(cfg)
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	n := netsim.New(inet, wl, netsim.DefaultConfig())
	if err := n.Track("fixw", "ucsb-gw"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		n.Step()
	}
	var out []collect.Dump
	scrape := func(name string, h collect.SessionHandler) {
		tgt := collect.Target{Name: name, Dialer: collect.PipeDialer{Router: h}, Prompt: name + "> ", Timeout: 5 * time.Second}
		dumps, err := collect.CollectAll(tgt, collect.StandardCommands, n.Now())
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, dumps...)
	}
	for _, name := range []string{"fixw", "ucsb-gw"} {
		scrape(name, n.Router(name))
	}
	for i, p := range []router.FaultProfile{{Truncate: 1, TruncateAfter: 600}, {Garble: 1}} {
		scrape("fixw", router.NewFaultyRouter(n.Router("fixw"), p, sim.NewRNG(int64(7+i))))
	}
	return out
}

// capture is two dumps as FuzzBuildSnapshot takes them: a command index
// into fuzzCommands and the dump's text, each.
type capture struct {
	cmd1 uint8
	raw1 string
	cmd2 uint8
	raw2 string
}

// recordedCaptures pairs each recorded dump with the next, and gives it
// alone as a CRLF and as an interleaved LF-CR transport deliver it.
func recordedCaptures(tb testing.TB) []capture {
	cmdOf := func(cmd string) uint8 { return uint8(slices.Index(fuzzCommands, cmd)) }
	unknown := uint8(len(fuzzCommands) - 1)
	dumps := realDumps(tb)
	var out []capture
	for i, d := range dumps {
		next := dumps[(i+1)%len(dumps)]
		out = append(out, capture{cmdOf(d.Command), d.Raw, cmdOf(next.Command), next.Raw},
			capture{cmdOf(d.Command), strings.ReplaceAll(d.Raw, "\n", "\r\n"), unknown, ""},
			capture{cmdOf(d.Command), strings.ReplaceAll(d.Raw, "\n", "\n\r"), unknown, ""})
	}
	return out
}

// seedLines is how much of each recorded dump FuzzBuildSnapshot seeds.
const seedLines = 8

// firstLines returns s up to and including its nth line feed.
func firstLines(s string, n int) string {
	end := 0
	for ; n > 0; n-- {
		i := strings.IndexByte(s[end:], '\n')
		if i < 0 {
			return s
		}
		end += i + 1
	}
	return s[:end]
}

// TestBuildSnapshotRecordedCaptures holds the scanner to the reference
// on the whole recorded captures, which FuzzBuildSnapshot seeds cut.
func TestBuildSnapshotRecordedCaptures(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	for _, c := range recordedCaptures(t) {
		sameAsReference(t, []collect.Dump{fuzzDump(c.cmd1, c.raw1), fuzzDump(c.cmd2, c.raw2)})
	}
}

// FuzzBuildSnapshot holds the one-pass scanner to the reference above
// over two-dump captures: equal snapshots, equal error text, the parse
// error of any dump ahead of the truncation error of any other.
func FuzzBuildSnapshot(f *testing.F) {
	cmdOf := make(map[string]uint8)
	for i, c := range fuzzCommands {
		cmdOf[c] = uint8(i)
	}
	const (
		dvmrp = iota
		mroute
		igmp
		pim
		msdp
		mbgp
		unknown
	)
	const routes = "DVMRP Routing Table - 2 entries\nOrigin-Subnet       From-Gateway     Metric  Uptime\n" +
		"128.111.0.0/16      198.32.255.3     3       12:30:00\n10.0.0.0/8          local            0       100:00:05\n"
	// The recorded captures, each dump cut to its first lines: the
	// fuzzer minimizes every input that finds new coverage, and on dumps
	// of tens of kilobytes that took up to its minute's limit per input,
	// so runs made no progress past their seeds. The whole captures are
	// TestBuildSnapshotRecordedCaptures' cases.
	for _, c := range recordedCaptures(f) {
		f.Add(c.cmd1, firstLines(c.raw1, seedLines), c.cmd2, firstLines(c.raw2, seedLines))
	}
	for _, raw := range []string{
		"", "\n", " \t\r\n", routes,
		"DVMRP Routing Table - 0 entries\n",
		"DVMRP Routing Table - 2 entries\nOrigin-Subnet       From-Gateway     Metric  Uptime\n", // header only
		"DVMRP Routing Table - 999999999999 entries\n10.0.0.0/8 local 0 0:00:05\n",               // absurd count
		"DVMRP Routing Table - -1 entries\n", "DVMRP Routing Table - +2 entries\n" + routes[32:],
		"% Invalid input\n" + routes, "  % Unknown command\n%\n" + routes, routes + "% trailing remnant\n",
		"DVMRP  Routing\tTable -  2   entries\nOrigin-Subnet\tFrom-Gateway\n" + routes[84:], // tabs, doubled spaces
		"DVMRP\u00a0Routing Table - 2 entries\n" + routes[32:],                              // U+00A0 inside the title
		"\u0085" + routes, "\u00a0\u00a0\n" + routes, strings.ReplaceAll(routes, " ", "\u00a0"),
		"10.0.0.0/8\u0085local\u00a01\u20280:00:05\n", "\xa0\xc2 10.0.0.0/8 local 1 0:00:05\n",
		"10.0.0.0/8 local 1 0:00:05", "10.0.0.0/8 local 1 0:00:05 extra\n", "10.0.0.0/8 local 1\n",
		"10.0.0.0/8 local x 0:00:05\n", "10.0.0.0/8 local +1 0:00:05\n", "10.0.0.0/8 local 1 0:+5:07\n",
		"10.0.0.0/8 local 1 0:60:00\n", "10.0.0.0/8 local 1 1:2:3:4\n", "10.0.0.0/8 local 1 ::\n",
		"10.0.0.0/8 local 1 9223372036854775807:00:00\n", "10.0.0.0/8 local 1 9223372036854775808:00:00\n",
		"10.0.0.0/+8 local 1 0:00:05\n", "+10.0.0.0/8 local 1 0:00:05\n", "10.0.0.0/8 1.2.3.+4 1 0:00:05\n",
		"a - b - 3 c\n10.0.0.0/8 local 1 0:00:05\n", "x -\n", "- 1\n", "-\n",
		strings.Repeat("w ", 40) + "- 7 entries\n", strings.Repeat("w- 9 ", 20) + "\n",
	} {
		f.Add(uint8(dvmrp), raw, uint8(unknown), "")
	}
	f.Add(uint8(mroute), "IP Multicast Forwarding Table - 1 entries\nSource           Group            Flags  IIF  OIFs           Kbps      Pkts        Uptime\n"+
		"128.111.41.2     224.2.0.1        DP     12   -              0.0       17          1:00:00\n", uint8(dvmrp), routes)
	f.Add(uint8(mroute), "Source\n128.111.41.2 224.2.0.1 DP 12 - 0.0 17 1:00:00 9\n", uint8(unknown), "")
	for _, rate := range []string{"NaN", "-Inf", "infinity", "1e400", "0x1p-2"} {
		f.Add(uint8(mroute), "128.111.41.2 224.2.0.1 DP 12 - "+rate+" 17 1:00:00\n", uint8(unknown), "")
	}
	// Keys listed twice: next to each other, ahead of a malformed row,
	// and further apart in a table out of key order, behind which a
	// malformed row wins.
	const row1, row2 = "10.0.0.0/8 local 0 0:00:05\n", "128.111.0.0/16 198.32.255.3 3 12:30:00\n"
	for _, raw := range []string{row1 + row1, row1 + row1 + "x\n", row2 + row1 + row2, row2 + row1 + row2 + "x\n", row2 + row1 + "10.0.0.0/16 local 0 0:00:05\n"} {
		f.Add(uint8(dvmrp), raw, uint8(unknown), "")
	}
	const sg1, sg2 = "128.111.41.2 224.2.0.1 DP 12 - 0.0 17 1:00:00\n", "10.1.1.1 224.2.0.1 DP 12 - 0.0 17 1:00:00\n"
	for _, raw := range []string{sg1 + sg1, sg2 + sg1 + sg2, sg1 + sg2 + sg1 + "x\n", strings.Replace(sg1, "DP", "S", 1) + sg1} {
		f.Add(uint8(mroute), raw, uint8(dvmrp), routes)
	}
	f.Add(uint8(igmp), "IGMP Group Membership - 1 groups, 1 members\nGroup            Host             Uptime\n224.2.0.1        128.111.41.2     0:05:00\n", uint8(pim), "PIM Group Table - 0 entries\n")
	f.Add(uint8(igmp), "Group\n224.2.0.1 128.111.41.2\n", uint8(unknown), "")
	f.Add(uint8(msdp), "MSDP Source-Active Cache - 2 entries\nSource           Group            Origin-RP        Uptime\n128.111.41.2     224.2.0.1        -                0:05:00\n", uint8(dvmrp), routes)
	f.Add(uint8(mbgp), "MBGP Table - 2 entries\nNetwork             Next-Hop         Uptime    Path\n128.111.0.0/16      198.32.1.2       1:00:00   7001 131\n10.0.0.0/8          local            2:00:00   64001\n", uint8(unknown), "")
	f.Add(uint8(mbgp), "10.0.0.0/8 local 2:00:00 "+strings.Repeat("65000 ", 40)+"\n10.1.0.0/16 local 2:00:00 1 2 x\n", uint8(unknown), "")
	f.Add(uint8(mbgp), "10.0.0.0/8 local 2:00:00\n", uint8(mbgp), "MBGP Table - 0 entries\n")
	// Cross-dump precedence: a short table first, a malformed row second.
	f.Add(uint8(dvmrp), "DVMRP Routing Table - 3 entries\n"+routes[32:], uint8(mroute), "not a table row here x y\n")
	f.Add(uint8(dvmrp), routes, uint8(dvmrp), "DVMRP Routing Table - 1 entries\n") // same command twice
	// Structural defects for ScanDumps: a prompt echo, a header that is
	// readable to the scanner but not to the count check, counts the rows
	// miss or overrun, a defect behind a malformed row, and a skipped
	// command's dump.
	f.Add(uint8(dvmrp), routes+fuzzPrompt+"\n", uint8(unknown), "\n")
	f.Add(uint8(dvmrp), strings.Replace(routes, "- 2 entries", "-  2 entries", 1), uint8(unknown), "\n")
	f.Add(uint8(igmp), "IGMP Group Membership - 1 groups, 2 members\nGroup\n224.2.0.1 128.111.41.2 0:05:00\n", uint8(unknown), "\n")
	f.Add(uint8(dvmrp), "DVMRP Routing Table - 1 entries\n"+routes[32:], uint8(unknown), "\n")
	f.Add(uint8(mroute), "not a table row here x y\n", uint8(dvmrp), routes+"\x01\n")
	f.Add(uint8(pim), "PIM Group Table - 3 entries\nGroup\n", uint8(unknown), "up 3 days\n")

	f.Fuzz(func(t *testing.T, cmd1 uint8, raw1 string, cmd2 uint8, raw2 string) {
		sameAsReference(t, []collect.Dump{fuzzDump(cmd1, raw1), fuzzDump(cmd2, raw2)})
	})
}

// TestBuildSnapshotErrorPrecedence pins the order errors surface in
// across dumps. The strings reach /health last_error and WAL gap
// reasons, so which of two defects is named is observable.
func TestBuildSnapshotErrorPrecedence(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	const (
		short   = "DVMRP Routing Table - 3 entries\n10.0.0.0/8 local 0 0:00:05\n"
		badRow  = "IP Multicast Forwarding Table - 1 entries\nnot a table row here x y\n"
		shortSA = "MSDP Source-Active Cache - 2 entries\n128.111.41.2 224.2.0.1 - 0:05:00\n"
		badAS   = "MBGP Table - 1 entries\n10.0.0.0/8 local 2:00:00 x\n"
	)
	dump := func(cmd, raw string) collect.Dump {
		return collect.Dump{Target: "r", Command: cmd, Raw: raw, At: sim.Epoch}
	}
	for _, c := range []struct {
		name  string
		dumps []collect.Dump
		want  string
	}{
		{"parse error after a short table wins",
			[]collect.Dump{dump("show ip dvmrp route", short), dump("show ip mroute", badRow)},
			`tables: r "show ip mroute": tables: mroute row "not a table row here x y" has 7 fields`},
		{"first of two parse errors",
			[]collect.Dump{dump("show ip mroute", badRow), dump("show ip mbgp", badAS)},
			`tables: r "show ip mroute": tables: mroute row "not a table row here x y" has 7 fields`},
		{"first of two short tables",
			[]collect.Dump{dump("show ip msdp sa-cache", shortSA), dump("show ip dvmrp route", short)},
			`tables: r "show ip msdp sa-cache" truncated: header says 2 entries, parsed 1`},
		{"short table alone",
			[]collect.Dump{dump("show clock", "12:00\n"), dump("show ip dvmrp route", short)},
			`tables: r "show ip dvmrp route" truncated: header says 3 entries, parsed 1`},
		{"mixed targets ahead of a later parse error",
			[]collect.Dump{dump("show ip dvmrp route", short), {Target: "q", Command: "show ip mroute", Raw: badRow}},
			`tables: mixed targets "r" and "q"`},
	} {
		_, err := tables.BuildSnapshot(c.dumps)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s:\n got: %v\nwant: %s", c.name, err, c.want)
		}
		sameAsReference(t, c.dumps)
	}
}

// TestBuildSnapshotAbsurdCount: a header may claim any count; what is
// allocated for the table is bounded by the bytes the dump has.
func TestBuildSnapshotAbsurdCount(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	dumps := []collect.Dump{{Target: "r", Command: "show ip dvmrp route", At: sim.Epoch,
		Raw: "DVMRP Routing Table - 999999999999 entries\n10.0.0.0/8 local 0 0:00:05\n"}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := tables.BuildSnapshot(dumps)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "header says 999999999999 entries, parsed 1") {
		t.Fatalf("err = %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("a %d-byte dump made BuildSnapshot allocate %d bytes", len(dumps[0].Raw), got)
	}
}

// TestScanDumpsLongLineIsLinear: lines of 100 000 fields — a header's
// count, an MBGP AS path, a skipped command's line — are each read once
// however the scan splits them, and a bad byte at the end of one is
// seen. Splitting such a line from each sixteenth field to its end again
// took seconds; once through takes milliseconds, and the gate leaves
// room for a race build on a busy machine.
func TestScanDumpsLongLineIsLinear(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	long := strings.Repeat(" 1", 100000)
	raw := "MBGP Table -" + long + "\n10.0.0.0/8 local 2:00:00" + long + "\n" + long + "\x01\n"
	for _, cmd := range []string{"show ip mbgp", "show ip pim group"} {
		start := time.Now()
		_, _, defect := tables.ScanDumps(fuzzPrompt, []collect.Dump{{Target: "r", Command: cmd, Raw: raw, At: sim.Epoch}})
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("%s: %d bytes took %v", cmd, len(raw), took)
		}
		if !errors.Is(defect, collect.ErrGarbled) || !strings.Contains(defect.Error(), "non-printable") {
			t.Errorf("%s: defect = %.120v, want the non-printable byte at the last line's end", cmd, defect)
		}
	}
}
