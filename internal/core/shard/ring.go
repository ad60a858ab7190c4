// Consistent-hash target assignment. Each live shard projects a fixed
// set of virtual nodes onto a 64-bit ring; a target belongs to the
// first virtual node at or after its own hash. The properties the
// supervisor leans on:
//
//   - Deterministic: assignment is a pure function of the target name
//     and the live shard set — every run of a fixed fleet computes the
//     same shard map, which is what lets the determinism contract span
//     processes and shard counts.
//   - Minimal movement: removing a shard only reassigns the dead
//     shard's targets (its ranges fall through to the survivors), and
//     restoring it only steals targets back — survivors never shuffle
//     targets among themselves during a handoff or a failback.
package shard

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringVnodes is the virtual-node count per shard; enough to spread a
// small fleet's ranges evenly without making ring rebuilds expensive.
const ringVnodes = 64

type vnode struct {
	hash  uint64
	shard int
}

// ringHash is FNV-1a finished with the splitmix64 mixer. Raw FNV-1a of
// near-identical short keys — exactly what the vnode labels
// "shard-0#0".."shard-0#63" are — lands in tight clusters (the inputs
// differ in one trailing byte, and FNV's final multiply doesn't spread
// the low bits), turning the ring into one giant arc per shard; the
// finalizer scrambles every bit so the arcs interleave.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) // hash.Hash.Write never returns an error; this is the ring hash, not a write path
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// buildRing constructs the sorted virtual-node ring over the live shard
// indexes.
func buildRing(live []int) []vnode {
	ring := make([]vnode, 0, len(live)*ringVnodes)
	for _, s := range live {
		prefix := "shard-" + strconv.Itoa(s) + "#"
		for v := 0; v < ringVnodes; v++ {
			ring = append(ring, vnode{hash: ringHash(prefix + strconv.Itoa(v)), shard: s})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].hash != ring[j].hash {
			return ring[i].hash < ring[j].hash
		}
		return ring[i].shard < ring[j].shard
	})
	return ring
}

// assignTarget returns the shard owning name on the ring. The ring must
// be non-empty.
func assignTarget(ring []vnode, name string) int {
	k := ringHash(name)
	i := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= k })
	if i == len(ring) {
		i = 0
	}
	return ring[i].shard
}
