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
	"strconv"
	"strings"
	"time"

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
	// Uptime is how long the router has had state for the pair.
	Uptime time.Duration
	// Since is the absolute instant state appeared (snapshot time minus
	// uptime), filled by BuildSnapshot. Unlike Uptime it is stable
	// across cycles, which is what makes delta logging effective.
	Since time.Time
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
	Uptime  time.Duration
	// Since is the absolute instant the route appeared; see
	// PairEntry.Since.
	Since time.Time
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
	// Uptime is the longest pair uptime, i.e. how long Mantra has had
	// state for the host.
	Uptime time.Duration
}

// ParticipantTable lists hosts participating in sessions.
type ParticipantTable []ParticipantEntry

// SessionEntry summarizes one group across the pair table.
type SessionEntry struct {
	Group addr.IP
	// Density is the number of participant hosts with state for the
	// group.
	Density int
	// TotalRateKbps is the aggregate bandwidth into the group.
	TotalRateKbps float64
	// Packets is the cumulative packets across pairs.
	Packets uint64
	// Protocol records which protocol's state advertised the session
	// ("dvmrp" for dense flags, "pim" for sparse).
	Protocol string
	// Uptime is the longest pair uptime for the group.
	Uptime time.Duration
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
//
//mantra:hotpath
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
	// f[:n] are the line's first fields, more the unsplit rest of a long
	// line; next splits that into spare only to check its bytes.
	f, spare [maxFields]string
	n        int
	more     string
	// bad, first and lines are what collect.CheckDump needs (see split and
	// next); count is what the first table line declares.
	bad   bool
	first string
	lines int
	count declared
	// as is the backing array the MBGP table's AS paths are cut from.
	as []int
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

// split cuts the leading fields of s into f, as strings.Fields would over
// ASCII white space, and returns how many it cut and what is left once f
// is full ("" when s had no more than len(f) fields). It sets bad at a
// byte it reads that is neither printable ASCII nor a space, tab or CR;
// it does not read more, which its caller splits in turn or next checks.
func (r *scan) split(s string, f *[maxFields]string) (n int, more string) {
	start, bad := -1, false // where the field being read began; -1 between fields
	for i := 0; i < len(s) && more == ""; i++ {
		c := s[i]
		space := c == ' ' || c-'\t' < 5 // \t \n \v \f \r
		bad = bad || c-' ' > '~'-' ' && c != '\t' && c != '\r'
		switch {
		case space && start >= 0:
			f[n] = s[start:i]
			n++
			start = -1
		case space || start >= 0:
		case n < len(f):
			start = i
		default:
			more = s[i:]
		}
	}
	if start >= 0 {
		f[n] = s[start:]
		n++
	}
	r.bad = r.bad || bad
	return n, more
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
		n, more = r.split(more, &f)
	}
	v, err := strconv.Atoi(count)
	return declared{v, err == nil}
}

// next moves to the dump's next line that is neither blank nor a "%" CLI
// error remnant, and reports whether there was one.
func (r *scan) next() bool {
	for r.rest != "" {
		r.line, r.rest, _ = strings.Cut(r.rest, "\n")
		r.n, r.more = r.split(r.line, &r.f)
		for more := r.more; more != ""; _, more = r.split(more, &r.spare) {
		}
		if r.n > 0 {
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
// other line goes through.
type table[E any] struct {
	title, columns string
	row            func(*scan) (E, error)
}

var (
	routeTable = table[RouteEntry]{"DVMRP Routing Table", "Origin-Subnet", routeRow}
	pairTable  = table[PairEntry]{"IP Multicast Forwarding Table", "Source ", pairRow}
	igmpTable  = table[IGMPEntry]{"IGMP Group Membership", "Group ", igmpRow}
	saTable    = table[SAEntry]{"MSDP Source-Active Cache", "Source ", saRow}
	mbgpTable  = table[MBGPEntry]{"MBGP Table", "Network ", mbgpRow}
)

// parse maps the lines r has left of dump d to a table. The first line's
// declared entry count, which it keeps in r, sizes the table before the
// first row is kept, capped by what the dump's length could hold. It
// stops at the first row that does not parse.
//
//mantra:hotpath budget=3
func (t table[E]) parse(r *scan, d collect.Dump) ([]E, error) {
	most := len(r.rest) / minRowBytes
	var out []E
	for first := true; r.next(); first = false {
		if first {
			if r.count = r.headerCount(); r.count.ok && r.count.n < most {
				most = r.count.n
			}
		}
		if r.hasPrefix(t.title) || r.hasPrefix(t.columns) {
			continue
		}
		e, err := t.row(r)
		if err != nil {
			return nil, fmt.Errorf("tables: %s %q: %w", d.Target, d.Command, err)
		}
		if out == nil && most > 0 {
			out = make([]E, 0, most)
		}
		out = append(out, e)
	}
	return out, nil
}

// routeRow parses one `show ip dvmrp route` row.
//
//mantra:hotpath budget=2
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
	e.Uptime, err = parseUptime(r.f[3])
	return e, err
}

// pairRow parses one `show ip mroute` row.
//
//mantra:hotpath budget=3
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
	if e.RateKbps, err = strconv.ParseFloat(r.f[5], 64); err != nil {
		return e, fmt.Errorf("tables: mroute rate %q", r.f[5])
	}
	if e.Packets, err = strconv.ParseUint(r.f[6], 10, 64); err != nil {
		return e, fmt.Errorf("tables: mroute packets %q", r.f[6])
	}
	e.Uptime, err = parseUptime(r.f[7])
	return e, err
}

// igmpRow parses one `show ip igmp groups` row.
//
//mantra:hotpath budget=1
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
//
//mantra:hotpath budget=1
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
//
//mantra:hotpath budget=3
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
		r.n, more = r.split(more, &r.f)
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
// depend on it. The budget is the three error texts, the header count of
// each dump past the eighth and the scan state, reset for each dump.
//
//mantra:hotpath budget=6
func ScanDumps(prompt string, dumps []collect.Dump) (sn *Snapshot, err, defect error) {
	if len(dumps) == 0 {
		return nil, fmt.Errorf("tables: no dumps"), nil
	}
	sn = &Snapshot{Target: dumps[0].Target, At: dumps[0].At}
	counts := make([]declared, 0, 8)
	var r scan
	for _, d := range dumps {
		r = scan{rest: d.Raw}
		switch {
		case err != nil:
		case d.Target != sn.Target:
			err = fmt.Errorf("tables: mixed targets %q and %q", sn.Target, d.Target)
		case d.Command == "show ip dvmrp route":
			sn.Routes, err = routeTable.parse(&r, d)
		case d.Command == "show ip mroute":
			sn.Pairs, err = pairTable.parse(&r, d)
		case d.Command == "show ip igmp groups":
			sn.IGMP, err = igmpTable.parse(&r, d)
		case d.Command == "show ip msdp sa-cache":
			sn.SAs, err = saTable.parse(&r, d)
		case d.Command == "show ip mbgp":
			sn.MBGP, err = mbgpTable.parse(&r, d)
		}
		for r.next() { // what a parse left, or a skipped command's dump
		}
		if defect == nil {
			defect = collect.CheckDump(prompt, d.Command, d.Raw, !r.bad, r.first, r.lines)
		}
		counts = append(counts, r.count)
	}
	if err != nil {
		return nil, err, defect
	}
	// Integrity check: the dump headers announce entry counts; a
	// mismatch means a truncated capture (a dropped telnet session was
	// a real failure mode for expect-driven collection). It runs after
	// every dump has parsed, so a malformed row anywhere is reported
	// ahead of a short table.
	for i, d := range dumps {
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
		if want := counts[i]; want.ok && got != want.n {
			return nil, fmt.Errorf("tables: %s %q truncated: header says %d entries, parsed %d",
				d.Target, d.Command, want.n, got), defect
		}
	}
	// Anchor uptimes to absolute time so logged entries are stable
	// across cycles.
	for i := range sn.Pairs {
		sn.Pairs[i].Since = sn.At.Add(-sn.Pairs[i].Uptime)
	}
	for i := range sn.Routes {
		sn.Routes[i].Since = sn.At.Add(-sn.Routes[i].Uptime)
	}
	return sn, nil, defect
}

// Participants derives the Participant table from the Pair table.
func (p PairTable) Participants() ParticipantTable {
	agg := make(map[addr.IP]*ParticipantEntry)
	order := make([]addr.IP, 0)
	for _, e := range p {
		pe := agg[e.Source]
		if pe == nil {
			pe = &ParticipantEntry{Host: e.Source}
			agg[e.Source] = pe
			order = append(order, e.Source)
		}
		pe.Groups++
		if e.RateKbps > pe.MaxRateKbps {
			pe.MaxRateKbps = e.RateKbps
		}
		if e.Uptime > pe.Uptime {
			pe.Uptime = e.Uptime
		}
	}
	out := make(ParticipantTable, 0, len(agg))
	for _, h := range order {
		out = append(out, *agg[h])
	}
	return out
}

// Sessions derives the Session table from the Pair table.
func (p PairTable) Sessions() SessionTable {
	agg := make(map[addr.IP]*SessionEntry)
	order := make([]addr.IP, 0)
	for _, e := range p {
		se := agg[e.Group]
		if se == nil {
			se = &SessionEntry{Group: e.Group, Protocol: protocolOf(e.Flags)}
			agg[e.Group] = se
			order = append(order, e.Group)
		}
		se.Density++
		se.TotalRateKbps += e.RateKbps
		se.Packets += e.Packets
		if e.Uptime > se.Uptime {
			se.Uptime = e.Uptime
		}
		if se.Protocol != protocolOf(e.Flags) {
			se.Protocol = "mixed"
		}
	}
	out := make(SessionTable, 0, len(agg))
	for _, g := range order {
		out = append(out, *agg[g])
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
