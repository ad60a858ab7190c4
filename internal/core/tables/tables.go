// Package tables implements Mantra's Router-Table Processor: it maps
// raw router dumps onto the tool's local data format — the
// four tables the paper defines (§III): the Pair table of (S,G) tuples,
// the Participant table of hosts, the Session table of groups, and the
// Route table of live routes.
//
// The Pair table is parsed from the multicast forwarding dump and the
// Route table from the DVMRP routing dump; Participant and Session tables
// are *derived* from the Pair table rather than stored — the redundancy-
// avoidance rule the paper's Data Logger applies.
package tables

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"repro/internal/addr"
	"repro/internal/core/collect"
)

// PairEntry is one (source, group) tuple with its traffic statistics.
type PairEntry struct {
	Source addr.IP
	Group  addr.IP
	// Flags is the raw flag string from the router (D/S/P/T/R letters).
	Flags string
	// RateKbps is the router's current bandwidth estimate.
	RateKbps float64
	// Packets is the cumulative packet count.
	Packets uint64
	// Since is when the router's state for the pair appeared, in Unix
	// nanoseconds (0 for none): At less the uptime the router reports,
	// stable while the state persists, which makes delta logging pay.
	Since int64
}

// PairTable lists every session-participant tuple the router has state for.
type PairTable []PairEntry

// RouteEntry is one live route.
type RouteEntry struct {
	Prefix addr.Prefix
	// Gateway is the next-hop address ("local" parses as the zero IP
	// with Local set).
	Gateway addr.IP
	Local   bool
	Metric  int
	// Since is when the route appeared; see PairEntry.Since. A route row
	// holds no pointer, so a route table is nothing the collector scans.
	Since int64
}

// RouteTable lists the current set of live routes.
type RouteTable []RouteEntry

// ParticipantEntry summarizes one host across the pair table.
type ParticipantEntry struct {
	Host addr.IP
	// Groups is the number of groups the host participates in.
	Groups int
	// MaxRateKbps is the host's highest per-pair rate — the sender
	// classification input.
	MaxRateKbps float64
	// Since is the earliest pair Since: when state for the host began.
	Since int64
}

// ParticipantTable lists hosts participating in sessions.
type ParticipantTable []ParticipantEntry

// SessionEntry summarizes one group across the pair table.
type SessionEntry struct {
	Group addr.IP
	// Density is the number of participant hosts with state for the
	// group: its pair rows, one an (S,G), since the scanner rejects a
	// table that lists an (S,G) twice and the merge keeps one row a key.
	Density int
	// TotalRateKbps is the aggregate bandwidth into the group.
	TotalRateKbps float64
	// Packets is the cumulative packets across pairs.
	Packets uint64
	// Protocol records which protocol's state advertised the session
	// ("dvmrp" for dense flags, "pim" for sparse).
	Protocol string
	// Since is the earliest pair Since for the group.
	Since int64
}

// SessionTable lists the multicast sessions visible at the router.
type SessionTable []SessionEntry

// IGMPEntry is one local membership report visible at the router.
type IGMPEntry struct {
	Group  addr.IP
	Host   addr.IP
	Uptime time.Duration
}

// SAEntry is one MSDP source-active cache entry.
type SAEntry struct {
	Source   addr.IP
	Group    addr.IP
	OriginRP addr.IP
	Uptime   time.Duration
}

// MBGPEntry is one MBGP RIB route.
type MBGPEntry struct {
	Prefix  addr.Prefix
	NextHop addr.IP
	Local   bool
	ASPath  []int
	Uptime  time.Duration
}

// Snapshot is one monitoring cycle's normalized view of one router.
type Snapshot struct {
	Target string
	At     time.Time
	Pairs  PairTable
	Routes RouteTable
	IGMP   []IGMPEntry
	SAs    []SAEntry
	MBGP   []MBGPEntry
}

// parseUptime parses the H:MM:SS uptime format: three runs of decimal
// digits, no signs, minutes and seconds at most 59.
func parseUptime(s string) (time.Duration, error) {
	var part [3]uint64
	k, digits, ok := 0, 0, true
	for i := 0; i < len(s) && ok; i++ {
		if s[i] == ':' {
			ok = digits > 0 && k < 2
			k, digits = k+1, 0
			continue
		}
		d := uint64(s[i] - '0')
		if ok = d <= 9 && part[k] <= (math.MaxInt64-d)/10; ok {
			part[k] = part[k]*10 + d
			digits++
		}
	}
	if !ok || k != 2 || digits == 0 || part[1] > 59 || part[2] > 59 {
		return 0, errors.New("tables: malformed uptime " + strconv.Quote(s))
	}
	return time.Duration(part[0])*time.Hour + time.Duration(part[1])*time.Minute + time.Duration(part[2])*time.Second, nil
}

// maxFields is how many fields of a line are split at a time. It is
// wider than every fixed-width row (the forwarding table's eight
// columns), so for those the field count alone tells a well-formed row;
// only an MBGP AS path or a garbled line runs past it.
const maxFields = 16

// minRowBytes is shorter than any row of any table, so a dump of n bytes
// holds fewer than n/minRowBytes rows whatever its header claims.
const minRowBytes = 16

// scan is one pass over a dump: the bytes not yet read, the current line
// cut into white-space-separated fields — substrings of the dump, nothing
// copied — and what a table's rows share from one line to the next.
type scan struct {
	// rest is the dump after the current line.
	rest string
	// line is the current line as captured, for error messages.
	line string
	// f[:n] are the line's first fields, more the unsplit rest of a long line.
	f    [maxFields]string
	n    int
	more string
	// first and lines are what collect.CheckDump needs of the lines (see
	// next); count is what the first table line declares.
	first string
	lines int
	count declared
	// as is the backing array the MBGP table's AS paths are cut from; at
	// is the snapshot's At in Unix nanoseconds, a row's Since anchor.
	as []int
	at int64
	// flags are the distinct flag strings the Pair table has kept so far.
	flags  [8]string
	nflags int
}

// internFlags returns a copy of s that does not alias the dump. A kept
// substring would pin the whole dump for as long as the delta log holds
// the entry; a table has a handful of distinct flag strings, so all but
// the first row with each share one copy.
func (r *scan) internFlags(s string) string {
	for _, have := range r.flags[:r.nflags] {
		if have == s {
			return have
		}
	}
	s = strings.Clone(s)
	if r.nflags < len(r.flags) {
		r.flags[r.nflags] = s
		r.nflags++
	}
	return s
}

// space marks the ASCII white space strings.Fields cuts at.
var space = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// split cuts the leading fields of s into f, as strings.Fields would over
// ASCII white space, and returns how many it cut and what is left once f
// is full ("" when s had no more than len(f) fields), which its caller
// splits in turn or drops.
func split(s string, f *[maxFields]string) (n int, more string) {
	for i := 0; ; {
		for i < len(s) && space[s[i]] {
			i++
		}
		if i == len(s) {
			return n, ""
		}
		if n == len(f) {
			return n, s[i:]
		}
		start := i
		for i < len(s) && !space[s[i]] {
			i++
		}
		f[n] = s[start:i]
		n++
	}
}

// joined is the line as collect.Preprocess would have handed it over:
// trimmed, with every run of white space collapsed to one space. Only
// error messages need it.
func (r *scan) joined() string { return strings.Join(strings.Fields(r.line), " ") }

// hasPrefix reports whether the joined line starts with prefix, without
// joining it. prefix has fewer than maxFields words.
func (r *scan) hasPrefix(prefix string) bool {
	for i, w := range r.f[:r.n] {
		if i > 0 {
			if prefix == "" {
				return true
			}
			if prefix[0] != ' ' {
				return false
			}
			prefix = prefix[1:]
		}
		if len(prefix) <= len(w) {
			return strings.HasPrefix(w, prefix)
		}
		if !strings.HasPrefix(prefix, w) {
			return false
		}
		prefix = prefix[len(w):]
	}
	return prefix == ""
}

// declared is a header's entry count, if it has one.
type declared struct {
	n  int
	ok bool
}

// headerCount extracts N from a "<title> - N entries"-style header line:
// the field after the last field that ends in a dash.
func (r *scan) headerCount() declared {
	count, dash := "", false
	f, n, more := r.f, r.n, r.more
	for {
		for _, w := range f[:n] {
			if dash {
				count = w
			}
			dash = w[len(w)-1] == '-'
		}
		if more == "" {
			break
		}
		n, more = split(more, &f)
	}
	v, err := strconv.Atoi(count)
	return declared{v, err == nil}
}

// next moves to the dump's next line that is neither blank nor a "%" CLI
// error remnant, and reports whether there was one.
func (r *scan) next() bool {
	for r.rest != "" {
		r.line, r.rest, _ = strings.Cut(r.rest, "\n")
		if r.n, r.more = split(r.line, &r.f); r.n > 0 {
			if r.lines++; r.lines == 1 {
				r.first = r.line
			}
			if r.f[0][0] != '%' {
				return true
			}
		}
	}
	return false
}

// table is one dump layout: the prefixes of its title and column-header
// lines, which are skipped wherever they appear, and the parser every
// other line goes through. A keyed table also maps a row to its key, as
// a number in the table's key order, and a key to the error that names
// it listed twice.
type table[E any] struct {
	title, columns string
	row            func(*scan) (E, error)
	key            func(*E) uint64
	twice          func(key uint64) error
}

var (
	routeTable = table[RouteEntry]{"DVMRP Routing Table", "Origin-Subnet", routeRow,
		func(e *RouteEntry) uint64 { return uint64(e.Prefix.Addr)<<8 | uint64(e.Prefix.Len) },
		func(k uint64) error {
			return fmt.Errorf("tables: dvmrp prefix %s listed twice", addr.Prefix{Addr: addr.IP(k >> 8), Len: uint8(k)})
		}}
	pairTable = table[PairEntry]{"IP Multicast Forwarding Table", "Source ", pairRow,
		func(e *PairEntry) uint64 { return uint64(e.Group)<<32 | uint64(e.Source) },
		func(k uint64) error {
			return fmt.Errorf("tables: mroute (S,G) (%s, %s) listed twice", addr.IP(uint32(k)), addr.IP(k>>32))
		}}
	igmpTable = table[IGMPEntry]{title: "IGMP Group Membership", columns: "Group ", row: igmpRow}
	saTable   = table[SAEntry]{title: "MSDP Source-Active Cache", columns: "Source ", row: saRow}
	mbgpTable = table[MBGPEntry]{title: "MBGP Table", columns: "Network ", row: mbgpRow}
)

// parse maps the lines r has left of target's dump of command to a
// table. The first line's declared entry count, which it keeps in r,
// sizes the table before the first row is kept, capped by what the
// dump's length could hold. It stops at the first row that does not
// parse, or in a keyed table at the first row whose key repeats the
// row's before it; a table out of key order, which no router renders,
// is then checked for a key anywhere twice by sorting a copy of its
// keys.
func (t table[E]) parse(r *scan, target, command string) ([]E, error) {
	most := len(r.rest) / minRowBytes
	var out []E
	var last uint64
	sorted := true
	for first := true; r.next(); first = false {
		if first {
			if r.count = r.headerCount(); r.count.ok && r.count.n < most {
				most = r.count.n
			}
		}
		// Rows start with a digit, which no title or column prefix does.
		if c := r.f[0][0]; (c == t.title[0] || c == t.columns[0]) && (r.hasPrefix(t.title) || r.hasPrefix(t.columns)) {
			continue
		}
		e, err := t.row(r)
		if err != nil {
			return nil, fmt.Errorf("tables: %s %q: %w", target, command, err)
		}
		if out == nil && most > 0 {
			out = make([]E, 0, most)
		}
		out = append(out, e)
		if t.key == nil {
			continue
		}
		k := t.key(&out[len(out)-1])
		if len(out) > 1 && k <= last {
			if k == last {
				return nil, fmt.Errorf("tables: %s %q: %w", target, command, t.twice(k))
			}
			sorted = false
		}
		last = k
	}
	if !sorted {
		keys := make([]uint64, len(out))
		for i := range out {
			keys[i] = t.key(&out[i])
		}
		slices.Sort(keys)
		for i := 1; i < len(keys); i++ {
			if keys[i] == keys[i-1] {
				return nil, fmt.Errorf("tables: %s %q: %w", target, command, t.twice(keys[i]))
			}
		}
	}
	return out, nil
}

// routeRow parses one `show ip dvmrp route` row.
func routeRow(r *scan) (RouteEntry, error) {
	var e RouteEntry
	if r.n != 4 {
		return e, fmt.Errorf("tables: dvmrp row %q has %d fields", r.joined(), r.n+len(strings.Fields(r.more)))
	}
	var err error
	if e.Prefix, err = addr.ParsePrefix(r.f[0]); err != nil {
		return e, err
	}
	if r.f[1] == "local" {
		e.Local = true
	} else if e.Gateway, err = addr.Parse(r.f[1]); err != nil {
		return e, err
	}
	if e.Metric, err = strconv.Atoi(r.f[2]); err != nil {
		return e, fmt.Errorf("tables: dvmrp metric %q", r.f[2])
	}
	up, err := parseUptime(r.f[3])
	e.Since = r.at - int64(up)
	return e, err
}

// pairRow parses one `show ip mroute` row.
func pairRow(r *scan) (PairEntry, error) {
	var e PairEntry
	if r.n != 8 {
		return e, fmt.Errorf("tables: mroute row %q has %d fields", r.joined(), r.n+len(strings.Fields(r.more)))
	}
	var err error
	if e.Source, err = addr.Parse(r.f[0]); err != nil {
		return e, err
	}
	if e.Group, err = addr.Parse(r.f[1]); err != nil {
		return e, err
	}
	e.Flags = r.internFlags(r.f[2])
	// ParseFloat accepts NaN and Inf, which no router reports and
	// which would poison every sum over the rate.
	if e.RateKbps, err = strconv.ParseFloat(r.f[5], 64); err != nil || math.IsNaN(e.RateKbps) || math.IsInf(e.RateKbps, 0) {
		return e, fmt.Errorf("tables: mroute rate %q", r.f[5])
	}
	if e.Packets, err = strconv.ParseUint(r.f[6], 10, 64); err != nil {
		return e, fmt.Errorf("tables: mroute packets %q", r.f[6])
	}
	up, err := parseUptime(r.f[7])
	e.Since = r.at - int64(up)
	return e, err
}

// igmpRow parses one `show ip igmp groups` row.
func igmpRow(r *scan) (IGMPEntry, error) {
	var e IGMPEntry
	if r.n != 3 {
		return e, fmt.Errorf("tables: igmp row %q", r.joined())
	}
	var err error
	if e.Group, err = addr.Parse(r.f[0]); err != nil {
		return e, err
	}
	if e.Host, err = addr.Parse(r.f[1]); err != nil {
		return e, err
	}
	e.Uptime, err = parseUptime(r.f[2])
	return e, err
}

// saRow parses one `show ip msdp sa-cache` row.
func saRow(r *scan) (SAEntry, error) {
	var e SAEntry
	if r.n != 4 {
		return e, fmt.Errorf("tables: msdp row %q", r.joined())
	}
	var err error
	if e.Source, err = addr.Parse(r.f[0]); err != nil {
		return e, err
	}
	if e.Group, err = addr.Parse(r.f[1]); err != nil {
		return e, err
	}
	if r.f[2] != "-" {
		if e.OriginRP, err = addr.Parse(r.f[2]); err != nil {
			return e, err
		}
	}
	e.Uptime, err = parseUptime(r.f[3])
	return e, err
}

// mbgpRow parses one `show ip mbgp` row. The AS path is appended to the
// table's one backing array and sub-sliced from it, capacity clipped so
// an append to one path cannot run into the next.
func mbgpRow(r *scan) (MBGPEntry, error) {
	var e MBGPEntry
	if r.n < 4 {
		return e, fmt.Errorf("tables: mbgp row %q", r.joined())
	}
	var err error
	if e.Prefix, err = addr.ParsePrefix(r.f[0]); err != nil {
		return e, err
	}
	if r.f[1] == "local" {
		e.Local = true
	} else if e.NextHop, err = addr.Parse(r.f[1]); err != nil {
		return e, err
	}
	if e.Uptime, err = parseUptime(r.f[2]); err != nil {
		return e, err
	}
	start := len(r.as)
	for path, more := r.f[3:r.n], r.more; ; {
		for _, as := range path {
			v, err := strconv.Atoi(as)
			if err != nil {
				return e, fmt.Errorf("tables: mbgp AS %q", as)
			}
			r.as = append(r.as, v)
		}
		if more == "" {
			break
		}
		r.n, more = split(more, &r.f)
		path = r.f[:r.n]
	}
	e.ASPath = r.as[start:len(r.as):len(r.as)]
	return e, nil
}

// BuildSnapshot is ScanDumps without the structural checks.
func BuildSnapshot(dumps []collect.Dump) (*Snapshot, error) {
	sn, err, _ := ScanDumps("", dumps)
	return sn, err
}

// ScanDumps assembles one router's cycle snapshot from its raw dumps,
// scanning each once into the table its command names; unknown commands
// are skipped. Every dump must share the target and timestamp. The same
// pass holds every dump to collect.CheckDump: defect is the first dump's
// ErrTruncated or ErrGarbled, which a retry may fix; sn and err do not
// depend on it.
func ScanDumps(prompt string, dumps []collect.Dump) (sn *Snapshot, err, defect error) {
	s := Scanner{Prompt: prompt}
	for i, d := range dumps {
		if i == 0 {
			s.Target, s.At = d.Target, d.At
			s.Begin()
		}
		s.scan(d.Target, d.Command, d.Raw)
	}
	return s.finish()
}

// Scanner is ScanDumps a dump at a time, as the collect.Sink the Collect
// stage streams each dump into straight from the session's read buffer.
// Target and At stamp the snapshot; Prompt is what CheckDump looks for.
// Snapshot and ParseErr are what the last End found: nil when a defect
// failed the attempt, and why a sound capture did not parse.
type Scanner struct {
	Target, Prompt string
	At             time.Time
	Snapshot       *Snapshot
	ParseErr       error

	// The attempt so far: the tables, the first row error and defect,
	// and each dump's declared count (in countBuf for up to eight dumps).
	sn          *Snapshot
	err, defect error
	counts      []count
	countBuf    [8]count
	r           scan
}

// count is what the header of a dump of command declares.
type count struct {
	command string
	declared
}

// Begin implements collect.Sink: it starts an attempt.
func (s *Scanner) Begin() {
	s.sn, s.err, s.defect, s.counts = &Snapshot{Target: s.Target, At: s.At}, nil, nil, s.countBuf[:0]
}

// Dump implements collect.Sink: it scans a dump in the read buffer
// through a string that aliases it. Nothing the scan keeps points into
// it: the kept Flags are copies (internFlags), and fmt and strconv copy
// what an error quotes.
func (s *Scanner) Dump(command string, raw []byte) {
	s.scan(s.Target, command, unsafe.String(unsafe.SliceData(raw), len(raw)))
}

// End implements collect.Sink: it finishes the attempt, whose defect
// leaves no snapshot.
func (s *Scanner) End() error {
	sn, err, defect := s.finish()
	if defect != nil {
		sn = nil
	}
	s.Snapshot, s.ParseErr = sn, err
	return defect
}

// scan parses one dump into the table its command names unless a row
// has failed already, checks it unless a defect was found already, and
// keeps its declared count.
func (s *Scanner) scan(target, command, raw string) {
	s.r = scan{rest: raw, at: s.At.UnixNano()}
	r := &s.r
	switch {
	case s.err != nil:
	case target != s.sn.Target:
		s.err = fmt.Errorf("tables: mixed targets %q and %q", s.sn.Target, target)
	case command == "show ip dvmrp route":
		s.sn.Routes, s.err = routeTable.parse(r, target, command)
	case command == "show ip mroute":
		s.sn.Pairs, s.err = pairTable.parse(r, target, command)
	case command == "show ip igmp groups":
		s.sn.IGMP, s.err = igmpTable.parse(r, target, command)
	case command == "show ip msdp sa-cache":
		s.sn.SAs, s.err = saTable.parse(r, target, command)
	case command == "show ip mbgp":
		s.sn.MBGP, s.err = mbgpTable.parse(r, target, command)
	}
	for r.next() { // what a parse left, or a skipped command's dump
	}
	if s.defect == nil {
		s.defect = collect.CheckDump(s.Prompt, command, raw, collect.Printable(raw), r.first, r.lines)
	}
	s.counts = append(s.counts, count{command, r.count})
}

// finish checks the declared counts once every dump has parsed, so a
// malformed row anywhere is reported ahead of a short table: a count
// mismatch means a truncated capture (a dropped telnet session was a
// real failure mode for expect-driven collection).
func (s *Scanner) finish() (sn *Snapshot, err, defect error) {
	if len(s.counts) == 0 {
		return nil, fmt.Errorf("tables: no dumps"), nil
	}
	if s.err != nil {
		return nil, s.err, s.defect
	}
	sn = s.sn
	for _, c := range s.counts {
		var got int
		switch c.command {
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
		if c.ok && got != c.n {
			return nil, fmt.Errorf("tables: %s %q truncated: header says %d entries, parsed %d",
				sn.Target, c.command, c.n, got), s.defect
		}
	}
	return sn, nil, s.defect
}

// Order returns the Pair table's rows in address order, in keys[:0]
// grown as needed: a key a row, the row's group (or its source, if
// bySource) in the high 32 bits and its index in the low, sorted, so an
// address's rows are one run (RunEnd) in row order. A table already in
// order sorts in one linear pass.
func (p PairTable) Order(keys []uint64, bySource bool) []uint64 {
	keys = slices.Grow(keys[:0], len(p))[:len(p)]
	for i := range p {
		a := p[i].Group
		if bySource {
			a = p[i].Source
		}
		keys[i] = uint64(a)<<32 | uint64(i)
	}
	slices.Sort(keys)
	return keys
}

// RunEnd returns the end of the run of keys that starts at i: the first
// index past i with another address, or len(keys).
func RunEnd(keys []uint64, i int) int {
	j := i + 1
	for j < len(keys) && keys[j]>>32 == keys[i]>>32 {
		j++
	}
	return j
}

// runs counts the runs of ordered keys.
func runs(keys []uint64) (n int) {
	for i := 0; i < len(keys); i = RunEnd(keys, i) {
		n++
	}
	return n
}

// Participants derives the Participant table from the Pair table, one
// entry a source in ascending address order.
func (p PairTable) Participants() ParticipantTable {
	keys := p.Order(nil, true)
	out := make(ParticipantTable, 0, runs(keys))
	for i, j := 0, 0; i < len(keys); i = j {
		j = RunEnd(keys, i)
		pe := ParticipantEntry{Host: addr.IP(keys[i] >> 32), Groups: j - i, Since: p[uint32(keys[i])].Since}
		for _, k := range keys[i:j] {
			e := &p[uint32(k)]
			if e.RateKbps > pe.MaxRateKbps {
				pe.MaxRateKbps = e.RateKbps
			}
			pe.Since = min(pe.Since, e.Since)
		}
		out = append(out, pe)
	}
	return out
}

// Sessions derives the Session table from the Pair table, one entry a
// group in ascending address order; a group's rate is summed in row
// order.
func (p PairTable) Sessions() SessionTable {
	keys := p.Order(nil, false)
	out := make(SessionTable, 0, runs(keys))
	for i, j := 0, 0; i < len(keys); i = j {
		j = RunEnd(keys, i)
		first := &p[uint32(keys[i])]
		se := SessionEntry{Group: addr.IP(keys[i] >> 32), Density: j - i, Protocol: protocolOf(first.Flags), Since: first.Since}
		for _, k := range keys[i:j] {
			e := &p[uint32(k)]
			se.TotalRateKbps += e.RateKbps
			se.Packets += e.Packets
			se.Since = min(se.Since, e.Since)
			if se.Protocol != protocolOf(e.Flags) {
				se.Protocol = "mixed"
			}
		}
		out = append(out, se)
	}
	return out
}

// protocolOf maps forwarding flags to the advertising protocol name.
func protocolOf(flags string) string {
	if strings.Contains(flags, "S") {
		return "pim"
	}
	if strings.Contains(flags, "D") {
		return "dvmrp"
	}
	return "unknown"
}
