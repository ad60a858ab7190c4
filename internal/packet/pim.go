package packet

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/addr"
)

// PIMv2 message types (RFC 2362).
const (
	pimTypeHello        = 0
	pimTypeRegister     = 1
	pimTypeRegisterStop = 2
	pimTypeJoinPrune    = 3
)

// PIMHello announces a PIM router on a link; Holdtime 0 means goodbye.
type PIMHello struct {
	Holdtime time.Duration
	// DRPriority breaks designated-router election ties.
	DRPriority uint32
}

// Marshal encodes the hello with holdtime and DR-priority options.
func (h *PIMHello) Marshal() []byte {
	b := make([]byte, 4+6+8)
	b[0] = 2<<4 | pimTypeHello
	// Option 1: holdtime (2-byte value).
	binary.BigEndian.PutUint16(b[4:], 1)
	binary.BigEndian.PutUint16(b[6:], 2)
	binary.BigEndian.PutUint16(b[8:], uint16(h.Holdtime/time.Second))
	// Option 19: DR priority (4-byte value).
	binary.BigEndian.PutUint16(b[10:], 19)
	binary.BigEndian.PutUint16(b[12:], 4)
	binary.BigEndian.PutUint32(b[14:], h.DRPriority)
	finishChecksum(b, 2)
	return b
}

// PIMJoinPruneGroup carries the join and prune source lists for one group.
// A join for the unspecified source is the shared-tree (*,G) join.
type PIMJoinPruneGroup struct {
	Group  addr.IP
	Joins  []addr.IP
	Prunes []addr.IP
}

// PIMJoinPrune is the periodic join/prune message sent hop-by-hop toward
// the RP or a source.
type PIMJoinPrune struct {
	// Upstream is the neighbor the message is addressed to.
	Upstream addr.IP
	Holdtime time.Duration
	Groups   []PIMJoinPruneGroup
}

// Marshal encodes the join/prune message.
func (j *PIMJoinPrune) Marshal() []byte {
	b := make([]byte, 12)
	b[0] = 2<<4 | pimTypeJoinPrune
	putIP(b[4:], j.Upstream)
	b[8] = byte(len(j.Groups))
	binary.BigEndian.PutUint16(b[10:], uint16(j.Holdtime/time.Second))
	for _, g := range j.Groups {
		var four [4]byte
		putIP(four[:], g.Group)
		b = append(b, four[:]...)
		var counts [4]byte
		binary.BigEndian.PutUint16(counts[:2], uint16(len(g.Joins)))
		binary.BigEndian.PutUint16(counts[2:], uint16(len(g.Prunes)))
		b = append(b, counts[:]...)
		for _, s := range g.Joins {
			putIP(four[:], s)
			b = append(b, four[:]...)
		}
		for _, s := range g.Prunes {
			putIP(four[:], s)
			b = append(b, four[:]...)
		}
	}
	finishChecksum(b, 2)
	return b
}

// PIMRegister tunnels the first packets of a new source to the RP.
// Null registers probe whether the RP still wants the flow.
type PIMRegister struct {
	Source addr.IP
	Group  addr.IP
	Null   bool
	// Bytes is the size of the encapsulated data payload (not carried
	// for null registers).
	Bytes uint32
}

// Marshal encodes the register message.
func (r *PIMRegister) Marshal() []byte {
	b := make([]byte, 20)
	b[0] = 2<<4 | pimTypeRegister
	if r.Null {
		b[4] = 0x40
	}
	putIP(b[8:], r.Source)
	putIP(b[12:], r.Group)
	binary.BigEndian.PutUint32(b[16:], r.Bytes)
	finishChecksum(b, 2)
	return b
}

// PIMRegisterStop tells a DR to stop register-encapsulating (Source, Group).
type PIMRegisterStop struct {
	Source addr.IP
	Group  addr.IP
}

// Marshal encodes the register-stop.
func (r *PIMRegisterStop) Marshal() []byte {
	b := make([]byte, 12)
	b[0] = 2<<4 | pimTypeRegisterStop
	putIP(b[4:], r.Group)
	putIP(b[8:], r.Source)
	finishChecksum(b, 2)
	return b
}

// PIMMessage is the decoded form of any PIM message; exactly one field is
// non-nil.
type PIMMessage struct {
	Hello        *PIMHello
	JoinPrune    *PIMJoinPrune
	Register     *PIMRegister
	RegisterStop *PIMRegisterStop
}

// UnmarshalPIM decodes a PIMv2 message, verifying version, length and
// checksum.
func UnmarshalPIM(b []byte) (*PIMMessage, error) {
	if len(b) < 4 {
		return nil, ErrTruncated
	}
	if b[0]>>4 != 2 {
		return nil, fmt.Errorf("packet: PIM version %d unsupported", b[0]>>4)
	}
	if err := verifyChecksum(b, 2); err != nil {
		return nil, err
	}
	switch b[0] & 0x0F {
	case pimTypeHello:
		h := &PIMHello{}
		rest := b[4:]
		for len(rest) >= 4 {
			opt := binary.BigEndian.Uint16(rest[:2])
			olen := int(binary.BigEndian.Uint16(rest[2:4]))
			if len(rest) < 4+olen {
				return nil, ErrTruncated
			}
			switch opt {
			case 1:
				if olen >= 2 {
					h.Holdtime = time.Duration(binary.BigEndian.Uint16(rest[4:6])) * time.Second
				}
			case 19:
				if olen >= 4 {
					h.DRPriority = binary.BigEndian.Uint32(rest[4:8])
				}
			}
			rest = rest[4+olen:]
		}
		return &PIMMessage{Hello: h}, nil
	case pimTypeJoinPrune:
		if len(b) < 12 {
			return nil, ErrTruncated
		}
		j := &PIMJoinPrune{
			Upstream: getIP(b[4:]),
			Holdtime: time.Duration(binary.BigEndian.Uint16(b[10:])) * time.Second,
		}
		ngroups := int(b[8])
		rest := b[12:]
		for i := 0; i < ngroups; i++ {
			if len(rest) < 8 {
				return nil, ErrTruncated
			}
			g := PIMJoinPruneGroup{Group: getIP(rest)}
			nj := int(binary.BigEndian.Uint16(rest[4:6]))
			np := int(binary.BigEndian.Uint16(rest[6:8]))
			rest = rest[8:]
			if len(rest) < 4*(nj+np) {
				return nil, ErrTruncated
			}
			for k := 0; k < nj; k++ {
				g.Joins = append(g.Joins, getIP(rest))
				rest = rest[4:]
			}
			for k := 0; k < np; k++ {
				g.Prunes = append(g.Prunes, getIP(rest))
				rest = rest[4:]
			}
			j.Groups = append(j.Groups, g)
		}
		return &PIMMessage{JoinPrune: j}, nil
	case pimTypeRegister:
		if len(b) < 20 {
			return nil, ErrTruncated
		}
		return &PIMMessage{Register: &PIMRegister{
			Null:   b[4]&0x40 != 0,
			Source: getIP(b[8:]),
			Group:  getIP(b[12:]),
			Bytes:  binary.BigEndian.Uint32(b[16:]),
		}}, nil
	case pimTypeRegisterStop:
		if len(b) < 12 {
			return nil, ErrTruncated
		}
		return &PIMMessage{RegisterStop: &PIMRegisterStop{
			Group:  getIP(b[4:]),
			Source: getIP(b[8:]),
		}}, nil
	}
	return nil, fmt.Errorf("packet: unsupported PIM type %d", b[0]&0x0F)
}
