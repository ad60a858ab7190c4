package collect

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrTruncated reports a dump that arrived structurally incomplete — cut
// mid-line, missing declared table rows, or empty where a table header was
// required.
var ErrTruncated = errors.New("collect: truncated dump")

// ErrGarbled reports a dump whose content is corrupted — non-printable
// bytes, a mangled table header, prompt echoes inside the body, or more
// rows than the header declared.
var ErrGarbled = errors.New("collect: garbled dump")

// tableHeaders maps each standard show command to the prefix of its dump's
// header line. Every table header also declares its entry count, which
// lets validation catch a session that died mid-table even though the
// prompt still arrived.
var tableHeaders = map[string]string{
	"show ip dvmrp route":    "DVMRP Routing Table",
	"show ip dvmrp neighbor": "DVMRP Neighbor Table",
	"show ip mroute":         "IP Multicast Forwarding Table",
	"show ip igmp groups":    "IGMP Group Membership",
	"show ip pim group":      "PIM Group Table",
	"show ip pim neighbor":   "PIM Neighbor Table",
	"show ip msdp sa-cache":  "MSDP Source-Active Cache",
	"show ip mbgp":           "MBGP Table",
}

// CheckDump makes the structural checks that reject a capture a retry
// may fix, given one raw dump and what a pass over it found: whether all
// bytes were printable ASCII, space, tab, CR or LF, and the first and
// the number of non-blank lines ("%" lines included). In order: an empty
// table dump, a mid-line cut, a prompt echo, a non-printable byte, then
// for the standard show commands a mangled header or row count.
//
//mantra:hotpath budget=8
func CheckDump(prompt, command, raw string, printable bool, first string, lines int) error {
	header, known := tableHeaders[command]
	switch {
	case strings.Trim(raw, " \t\r\n") == "":
		// A bare CR or a prompt-only reply's leftover newline is an
		// empty dump, not a mid-line cut.
		if known {
			return fmt.Errorf("%w: empty %q dump", ErrTruncated, command)
		}
		return nil
	case !strings.HasSuffix(strings.TrimRight(raw, "\r"), "\n"):
		// Some transports interleave CRLF as LF-CR; trailing carriage
		// returns after the final newline do not make the dump incomplete.
		return fmt.Errorf("%w: %q output cut mid-line", ErrTruncated, command)
	case prompt != "" && strings.Contains(raw, prompt):
		return fmt.Errorf("%w: prompt echo inside %q dump", ErrGarbled, command)
	case !printable:
		return fmt.Errorf("%w: non-printable byte in %q dump", ErrGarbled, command)
	case !known:
		return nil
	}
	first = strings.TrimRight(first, "\r")
	if !strings.HasPrefix(first, header) {
		return fmt.Errorf("%w: %q header mangled: %q", ErrGarbled, command, first)
	}
	declared, ok := declaredRows(first)
	if !ok {
		return fmt.Errorf("%w: %q header count unreadable: %q", ErrGarbled, command, first)
	}
	// Header line, column-header line, then exactly `declared` rows.
	switch rows := lines - 2; {
	case declared == 0 || rows == declared:
		return nil
	case rows < declared:
		return fmt.Errorf("%w: %q table has %d of %d declared rows", ErrTruncated, command, rows, declared)
	default:
		return fmt.Errorf("%w: %q table has %d rows against %d declared", ErrGarbled, command, rows, declared)
	}
}

// declaredRows reads N of a header's "- N entries|neighbors|groups", or M
// of a following ", M members" (IGMP lists one row per member). A count
// too large for an int reads as the largest int.
func declaredRows(line string) (int, bool) {
	i := strings.LastIndex(line, "- ") // the tail after it has no "- "
	if i < 0 {
		return 0, false
	}
	n, unit, _ := strings.Cut(line[i+2:], " ")
	unit, m, members := strings.Cut(unit, ", ")
	m, ok := strings.CutSuffix(m, " members")
	if !digits(n) || unit != "entries" && unit != "neighbors" && unit != "groups" || members && !(ok && digits(m)) {
		return 0, false
	}
	if members {
		n = m
	}
	v, _ := strconv.Atoi(n)
	return v, true
}

// digits reports whether s is a non-empty run of decimal digits.
func digits(s string) bool { return s != "" && strings.Trim(s, "0123456789") == "" }

// ValidateDump is CheckDump over a pass of its own. It and ValidateDumps
// have no product caller (tables.ScanDumps checks in its one pass) and
// are kept for bench/layers.go and bench/replay_test.go only, until the
// benchmark's layer walk drops them along with Preprocess.
func ValidateDump(prompt, command, raw string) error {
	printable := strings.IndexFunc(raw, func(c rune) bool { return c > '~' || c < ' ' && c != '\t' && c != '\r' && c != '\n' }) < 0
	first, lines := "", 0
	for rest := raw; rest != ""; {
		var line string
		if line, rest, _ = strings.Cut(rest, "\n"); strings.Trim(line, " \t\r") != "" {
			if lines++; lines == 1 {
				first = line
			}
		}
	}
	return CheckDump(prompt, command, raw, printable, first, lines)
}

// ValidateDumps runs ValidateDump over a full cycle's dump set, returning
// the first structural defect found.
func ValidateDumps(prompt string, dumps []Dump) error {
	for _, d := range dumps {
		if err := ValidateDump(prompt, d.Command, d.Raw); err != nil {
			return err
		}
	}
	return nil
}
