// Package cluster shards the ELISA control plane: N independent manager
// machines (each its own hypervisor, manager VM, gate/sub-context pool,
// slot LRU, ring poller, and overload gates), a seeded consistent-hash
// placement ring that maps shared-object names to owning shards, and a
// thin guest-side router that resolves the owner once at negotiation
// time — so the exit-less hot path through any one shard still costs
// exactly the calibrated 196 ns, and the cluster as a whole scales past
// one manager VM's EPTP-list and poller ceiling.
//
// Placement is deterministic: the ring is built from (Seed, Shards)
// alone, so every process that shares those two numbers agrees on object
// ownership without coordination. Explicit pins override the hash for
// objects that must co-reside (or must move — see Cluster.MoveObject).
package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-shard virtual-node count of every
// placement ring. More virtual nodes smooth the hash-space split (lower
// imbalance) at the cost of a larger sorted point table; 64 keeps the
// max/mean object imbalance under ~1.3 for realistic object counts.
const DefaultVirtualNodes = 64

// PlacementConfig configures a PlacementRing.
type PlacementConfig struct {
	// Shards is the shard count (required, >= 1).
	Shards int
	// Seed perturbs every virtual node's position. Two rings built with
	// the same (Seed, Shards) map every object identically.
	Seed int64
}

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a shard.
type ringPoint struct {
	pos   uint64
	shard int
}

// PlacementRing is a seeded consistent-hash ring mapping object names to
// shard IDs, with explicit per-object pinning layered on top. It is
// immutable after construction except for pins, and not synchronised:
// callers that pin concurrently with lookups must serialise externally
// (Cluster does).
type PlacementRing struct {
	cfg    PlacementConfig
	points []ringPoint // sorted by pos
	pins   map[string]int
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection layered
// over FNV, because raw FNV-64a of short structured labels (mostly-zero
// little-endian integers) clusters badly enough to starve shards of arc
// length.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewPlacementRing builds the ring. Construction is deterministic in the
// config: virtual-node positions are avalanche-mixed FNV-64a hashes of
// (seed, shard, vnode), sorted; ties are broken by shard then vnode
// index, so even colliding positions order identically everywhere.
func NewPlacementRing(cfg PlacementConfig) (*PlacementRing, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: placement ring needs at least 1 shard, got %d", cfg.Shards)
	}
	r := &PlacementRing{cfg: cfg, pins: make(map[string]int)}
	r.points = make([]ringPoint, 0, cfg.Shards*DefaultVirtualNodes)
	var label [24]byte
	binary.LittleEndian.PutUint64(label[0:], uint64(cfg.Seed))
	for s := 0; s < cfg.Shards; s++ {
		binary.LittleEndian.PutUint64(label[8:], uint64(s))
		for v := 0; v < DefaultVirtualNodes; v++ {
			binary.LittleEndian.PutUint64(label[16:], uint64(v))
			h := fnv.New64a()
			h.Write(label[:])
			r.points = append(r.points, ringPoint{pos: mix64(h.Sum64()), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shards returns the ring's shard count.
func (r *PlacementRing) Shards() int { return r.cfg.Shards }

// hashObject positions an object name on the circle, mixed with the
// ring's seed so different seeds yield independent placements.
func (r *PlacementRing) hashObject(name string) uint64 {
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(r.cfg.Seed))
	h := fnv.New64a()
	h.Write(seed[:])
	h.Write([]byte(name))
	return mix64(h.Sum64())
}

// Owner maps an object name to its owning shard: the pin if one is set,
// otherwise the first virtual node clockwise of the object's hash.
func (r *PlacementRing) Owner(object string) int {
	if s, ok := r.pins[object]; ok {
		return s
	}
	pos := r.hashObject(object)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0 // wrap: past the last point, the first owns
	}
	return r.points[i].shard
}

// Pin overrides the hash placement for one object. Pinning an object
// that already lives elsewhere does not move it — use Cluster.MoveObject
// for that; Pin before creation is the placement-time override.
func (r *PlacementRing) Pin(object string, shard int) error {
	if shard < 0 || shard >= r.cfg.Shards {
		return fmt.Errorf("cluster: pin %q to shard %d outside [0,%d)", object, shard, r.cfg.Shards)
	}
	r.pins[object] = shard
	return nil
}

// Unpin removes an explicit pin; the object's owner reverts to the hash
// placement for future lookups.
func (r *PlacementRing) Unpin(object string) { delete(r.pins, object) }

// Pinned reports the explicit pin for an object, if any.
func (r *PlacementRing) Pinned(object string) (shard int, ok bool) {
	s, ok := r.pins[object]
	return s, ok
}
