package packet

import (
	"fmt"
	"time"

	"repro/internal/addr"
)

// IGMP message types (RFC 2236).
const (
	igmpTypeQuery    = 0x11
	igmpTypeReportV2 = 0x16
	igmpTypeLeave    = 0x17
)

// IGMPKind distinguishes the IGMPv2 message variants.
type IGMPKind uint8

// The IGMPv2 message kinds.
const (
	IGMPQuery IGMPKind = iota
	IGMPReport
	IGMPLeave
)

// String returns the RFC name of the message kind.
func (k IGMPKind) String() string {
	switch k {
	case IGMPQuery:
		return "membership-query"
	case IGMPReport:
		return "v2-membership-report"
	case IGMPLeave:
		return "leave-group"
	}
	return "unknown"
}

// IGMP is an IGMPv2 message. A general query carries the unspecified group;
// a group-specific query, report, or leave names the group.
type IGMP struct {
	Kind IGMPKind
	// MaxResp is the maximum response time for queries; encoded in
	// tenths of a second as on the wire.
	MaxResp time.Duration
	Group   addr.IP
}

// Marshal encodes the message with a valid checksum.
func (m *IGMP) Marshal() []byte {
	b := make([]byte, 8)
	switch m.Kind {
	case IGMPQuery:
		b[0] = igmpTypeQuery
		tenths := m.MaxResp.Milliseconds() / 100
		if tenths > 255 {
			tenths = 255
		}
		b[1] = byte(tenths)
	case IGMPReport:
		b[0] = igmpTypeReportV2
	case IGMPLeave:
		b[0] = igmpTypeLeave
	}
	putIP(b[4:], m.Group)
	finishChecksum(b, 2)
	return b
}

// UnmarshalIGMP decodes an IGMPv2 message, verifying length and checksum.
func UnmarshalIGMP(b []byte) (*IGMP, error) {
	if len(b) < 8 {
		return nil, ErrTruncated
	}
	if err := verifyChecksum(b[:8], 2); err != nil {
		return nil, err
	}
	m := &IGMP{Group: getIP(b[4:8])}
	switch b[0] {
	case igmpTypeQuery:
		m.Kind = IGMPQuery
		m.MaxResp = time.Duration(b[1]) * 100 * time.Millisecond
	case igmpTypeReportV2:
		m.Kind = IGMPReport
	case igmpTypeLeave:
		m.Kind = IGMPLeave
	default:
		return nil, fmt.Errorf("packet: unknown IGMP type 0x%02x", b[0])
	}
	return m, nil
}
