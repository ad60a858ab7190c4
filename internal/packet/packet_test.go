package packet

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/addr"
)

func TestChecksumKnown(t *testing.T) {
	// RFC 1071 example words: 0x0001 0xf203 0xf4f5 0xf6f7.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %04x, want %04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xFF}) != ^uint16(0xFF00) {
		t.Error("odd-length padding wrong")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	m := &IGMP{Kind: IGMPReport, Group: addr.MustParse("224.1.2.3")}
	b := m.Marshal()
	b[5] ^= 0x01
	if _, err := UnmarshalIGMP(b); err != ErrBadChecksum {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestIGMPRoundTrip(t *testing.T) {
	cases := []*IGMP{
		{Kind: IGMPQuery, MaxResp: 10 * time.Second},
		{Kind: IGMPQuery, MaxResp: 2500 * time.Millisecond, Group: addr.MustParse("239.1.1.1")},
		{Kind: IGMPReport, Group: addr.MustParse("224.2.127.254")},
		{Kind: IGMPLeave, Group: addr.MustParse("224.2.127.254")},
	}
	for _, c := range cases {
		got, err := UnmarshalIGMP(c.Marshal())
		if err != nil {
			t.Fatalf("%v: %v", c.Kind, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("round trip %+v != %+v", got, c)
		}
	}
}

func TestIGMPMaxRespClamps(t *testing.T) {
	m := &IGMP{Kind: IGMPQuery, MaxResp: time.Hour}
	got, err := UnmarshalIGMP(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxResp != 25500*time.Millisecond {
		t.Errorf("MaxResp = %v, want clamp to 25.5s", got.MaxResp)
	}
}

func TestIGMPTruncated(t *testing.T) {
	if _, err := UnmarshalIGMP([]byte{0x16, 0, 0}); err != ErrTruncated {
		t.Errorf("err = %v", err)
	}
}

func TestIGMPKindString(t *testing.T) {
	if IGMPQuery.String() != "membership-query" || IGMPKind(99).String() != "unknown" {
		t.Error("IGMPKind.String wrong")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	m := &IGMP{Kind: IGMPQuery, MaxResp: 2500 * time.Millisecond, Group: addr.MustParse("239.1.1.1")}
	if !bytes.Equal(m.Marshal(), m.Marshal()) {
		t.Error("Marshal is not deterministic")
	}
}
