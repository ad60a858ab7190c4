package msdp

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/sim"
	"repro/internal/topo"
)

var (
	s1 = addr.MustParse("128.111.41.2")
	g1 = addr.MustParse("224.2.0.1")
	g2 = addr.MustParse("224.2.0.2")
)

// chainMesh builds RPs 0..n-1 peered in a chain.
func chainMesh(n int) (*Mesh, []topo.NodeID) {
	m := NewMesh(0)
	ids := make([]topo.NodeID, n)
	for i := range ids {
		ids[i] = topo.NodeID(i + 1)
		m.EnsureRP(ids[i])
	}
	for i := 0; i+1 < n; i++ {
		m.Peer(ids[i], ids[i+1])
	}
	return m, ids
}

func TestOriginateAndFlood(t *testing.T) {
	m, ids := chainMesh(4)
	now := sim.Epoch
	m.Originate(ids[0], s1, g1, now)
	m.Tick(now)
	for i, rp := range ids {
		c := m.Cache(rp)
		if len(c) != 1 {
			t.Fatalf("rp %d cache = %v", i, c)
		}
		if c[0].Source != s1 || c[0].Group != g1 || c[0].OriginRP != ids[0] {
			t.Errorf("rp %d entry = %+v", i, c[0])
		}
	}
	// Peer attribution: the tail learned from its chain predecessor.
	tail := m.Cache(ids[3])[0]
	if tail.Peer != ids[2] {
		t.Errorf("tail peer = %v", tail.Peer)
	}
}

func TestPeerRPFRejectsLongerPath(t *testing.T) {
	// Triangle: SAs reach each RP once; the rejected duplicate from the
	// longer side is counted.
	m, ids := chainMesh(3)
	m.Peer(ids[0], ids[2])
	now := sim.Epoch
	m.Originate(ids[0], s1, g1, now)
	m.Tick(now)
	for _, rp := range ids {
		if m.CacheSize(rp) != 1 {
			t.Fatalf("rp %v cache size = %d", rp, m.CacheSize(rp))
		}
	}
	if m.Stats().SARejected == 0 {
		t.Error("expected peer-RPF rejections on the triangle")
	}
}

func TestExpiryWithoutReorigination(t *testing.T) {
	m, ids := chainMesh(2)
	now := sim.Epoch
	m.Originate(ids[0], s1, g1, now)
	m.Tick(now)
	if m.CacheSize(ids[1]) != 1 {
		t.Fatal("flood failed")
	}
	m.StopOriginating(ids[0], s1, g1)
	// Advance past the SA lifetime without re-origination.
	now = now.Add(DefaultSALifetime + time.Hour)
	m.Tick(now)
	if m.CacheSize(ids[0]) != 0 || m.CacheSize(ids[1]) != 0 {
		t.Errorf("stale SA survived: %d, %d", m.CacheSize(ids[0]), m.CacheSize(ids[1]))
	}
	if m.Stats().SAExpired == 0 {
		t.Error("expiry not counted")
	}
}

func TestReoriginationKeepsAlive(t *testing.T) {
	m, ids := chainMesh(2)
	now := sim.Epoch
	m.Originate(ids[0], s1, g1, now)
	m.Tick(now)
	for i := 0; i < 5; i++ {
		now = now.Add(30 * time.Minute)
		m.Originate(ids[0], s1, g1, now)
		m.Tick(now)
	}
	if m.CacheSize(ids[1]) != 1 {
		t.Error("refreshed SA expired")
	}
	e := m.Cache(ids[1])[0]
	if !e.LastRefresh.Equal(now) {
		t.Errorf("LastRefresh = %v, want %v", e.LastRefresh, now)
	}
}

func TestSourcesFor(t *testing.T) {
	m, ids := chainMesh(2)
	now := sim.Epoch
	for i := 8; i >= 1; i-- {
		m.Originate(ids[0], addr.V4(1, 2, 3, byte(i)), g1, now)
	}
	m.Originate(ids[0], s1, g2, now)
	m.Tick(now)
	for call := 0; call < 20; call++ {
		srcs := m.SourcesFor(ids[1], g1)
		if len(srcs) != 8 {
			t.Fatalf("SourcesFor = %v", srcs)
		}
		for i, src := range srcs {
			if src != addr.V4(1, 2, 3, byte(i+1)) {
				t.Fatalf("SourcesFor = %v, want sorted", srcs)
			}
		}
	}
	if len(m.SourcesFor(ids[1], addr.MustParse("224.9.9.9"))) != 0 {
		t.Error("unknown group should be empty")
	}
}

func TestRemoveRP(t *testing.T) {
	m, ids := chainMesh(3)
	now := sim.Epoch
	m.Originate(ids[0], s1, g1, now)
	m.Tick(now)
	m.RemoveRP(ids[1])
	if m.HasRP(ids[1]) {
		t.Error("RP still present")
	}
	if len(m.Peers(ids[0])) != 0 || len(m.Peers(ids[2])) != 0 {
		t.Error("peerings to removed RP remain")
	}
	// Origin keeps re-originating; the now-partitioned tail expires.
	now = now.Add(DefaultSALifetime + time.Hour)
	m.Originate(ids[0], s1, g1, now)
	m.Tick(now)
	if m.CacheSize(ids[2]) != 0 {
		t.Errorf("partitioned RP kept SA: %v", m.Cache(ids[2]))
	}
	if m.CacheSize(ids[0]) != 1 {
		t.Error("origin lost its own SA")
	}
}

func TestPeerDuplicateIgnored(t *testing.T) {
	m, ids := chainMesh(2)
	m.Peer(ids[0], ids[1])
	if len(m.Peers(ids[0])) != 1 {
		t.Errorf("duplicate peering: %v", m.Peers(ids[0]))
	}
	m.Peer(ids[0], topo.NodeID(99)) // unknown RP
	if len(m.Peers(ids[0])) != 1 {
		t.Error("peering with unknown RP accepted")
	}
}

func TestCacheSortedByGroupSource(t *testing.T) {
	m, ids := chainMesh(1)
	now := sim.Epoch
	m.Originate(ids[0], addr.MustParse("9.9.9.9"), g2, now)
	m.Originate(ids[0], s1, g1, now)
	m.Originate(ids[0], addr.MustParse("1.1.1.1"), g1, now)
	c := m.Cache(ids[0])
	if len(c) != 3 || c[0].Group != g1 || c[0].Source != addr.MustParse("1.1.1.1") || c[2].Group != g2 {
		t.Errorf("cache order: %+v", c)
	}
}

func TestFirstPreservedOnRefresh(t *testing.T) {
	m, ids := chainMesh(2)
	now := sim.Epoch
	m.Originate(ids[0], s1, g1, now)
	m.Tick(now)
	later := now.Add(time.Hour)
	m.Originate(ids[0], s1, g1, later)
	m.Tick(later)
	if e := m.Cache(ids[1])[0]; !e.First.Equal(now) {
		t.Errorf("First = %v, want %v", e.First, now)
	}
}
