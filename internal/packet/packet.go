// Package packet defines the IGMPv2 wire encoding (RFC 2236), which
// round-trips through its decoder with checksum and truncation
// validation. The simulator carries membership reports through it on
// the host-to-router path (internal/netsim); the routing engines
// exchange state at table granularity, so no other protocol has a wire
// codec.
package packet

import (
	"encoding/binary"
	"errors"

	"repro/internal/addr"
)

// ErrTruncated reports a message shorter than its header or declared length.
var ErrTruncated = errors.New("packet: truncated message")

// ErrBadChecksum reports a checksum mismatch on a received message.
var ErrBadChecksum = errors.New("packet: bad checksum")

// Checksum computes the 16-bit one's-complement internet checksum used by
// IGMP messages.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

func putIP(b []byte, ip addr.IP) { binary.BigEndian.PutUint32(b, uint32(ip)) }
func getIP(b []byte) addr.IP     { return addr.IP(binary.BigEndian.Uint32(b)) }

// verifyChecksum checks the embedded checksum at offset off within b.
func verifyChecksum(b []byte, off int) error {
	want := binary.BigEndian.Uint16(b[off : off+2])
	cp := make([]byte, len(b))
	copy(cp, b)
	cp[off], cp[off+1] = 0, 0
	if Checksum(cp) != want {
		return ErrBadChecksum
	}
	return nil
}

// finishChecksum zeroes then writes the checksum at offset off within b.
func finishChecksum(b []byte, off int) {
	b[off], b[off+1] = 0, 0
	binary.BigEndian.PutUint16(b[off:off+2], Checksum(b))
}
