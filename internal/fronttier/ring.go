// Package fronttier implements ConfBench's sharded front door: a
// consistent-hash router that spreads invokes (keyed by function ×
// tenant) across N gateway shards, with per-tenant admission control
// (token-bucket rates and in-flight quotas), bounded per-shard
// admission queues with load shedding, shard-level circuit-breaker
// failover reusing the gateway's breaker machinery, an async
// submit/poll invoke path backed by a bounded TTL result store, and
// cluster-telemetry federation that merges every shard's registry
// under shard labels.
//
// The tier exists so the single-gateway deployment the paper
// evaluates scales toward the ROADMAP's production north star: slow
// confidential-VM cold starts and attestation rounds stop pinning
// front-door connections (async path), one hot tenant stops starving
// the rest (admission control), and one wedged shard stops sinking
// the keys hashed to it (breaker failover along the ring's successor
// walk).
package fronttier

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultVirtualNodes is the per-shard virtual-node count. High enough
// that 8 shards land within a few percent of fair share; low enough
// that ring rebuilds stay trivial.
const DefaultVirtualNodes = 160

// DefaultLoadFactor is the bounded-load factor c: a shard carrying
// more than c × (mean load + 1) is walked past unless every shard is
// over the bound.
const DefaultLoadFactor = 1.25

// RouteKey builds the ring key for an invoke: function × tenant. Two
// tenants invoking the same function hash independently, so a hot
// tenant's keyspace does not pin its neighbours to one shard. The
// separator is a control byte no function or tenant name contains, so
// distinct (function, tenant) pairs never collide into one key.
func RouteKey(function, tenant string) string {
	return function + "\x1f" + tenant
}

// hashKey is the ring's hash: FNV-1a 64 through a full-avalanche
// finalizer — deterministic across processes and runs, no seed
// material, cheap. Raw FNV of short sequential strings ("shard-3#17")
// clusters on the ring badly enough to skew shard shares by over 2×;
// the finalizer spreads the virtual nodes uniformly.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the murmur3 64-bit finalizer: every input bit avalanches
// across the output.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ringPoint is one virtual node: a position on the ring owned by a
// shard.
type ringPoint struct {
	hash  uint64
	shard string
}

// Ring is a consistent-hash ring with virtual nodes. Lookups walk
// clockwise from the key's hash; Successors yields every distinct
// shard in walk order, which is the failover order the tier uses when
// a shard's breaker is open. The ring itself is stateless about load —
// bounded-load placement composes the walk order with a live load
// reading (PickBounded).
type Ring struct {
	vnodes int

	mu     sync.RWMutex
	points []ringPoint // sorted by hash, ties broken by shard name
	shards map[string]struct{}
}

// NewRing builds an empty ring with the given virtual-node count per
// shard (0 = DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, shards: make(map[string]struct{})}
}

// Add places a shard's virtual nodes on the ring. Adding an existing
// shard is a no-op, so rebuilds are idempotent.
func (r *Ring) Add(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.shards[shard]; ok {
		return
	}
	r.shards[shard] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash:  hashKey(shard + "#" + strconv.Itoa(i)),
			shard: shard,
		})
	}
	r.sortLocked()
}

// Remove takes a shard's virtual nodes off the ring; its keys fall to
// their ring successors (≈1/n of the keyspace moves, nothing else).
func (r *Ring) Remove(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.shards[shard]; !ok {
		return
	}
	delete(r.shards, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// sortLocked restores the ring order. Hash ties (astronomically rare
// with 64-bit FNV, but possible) break by shard name so the ring is
// identical however shards were added.
func (r *Ring) sortLocked() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
}

// Shards lists the ring members, sorted.
func (r *Ring) Shards() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.shards))
	for s := range r.shards {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Len reports the shard count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.shards)
}

// Owner returns the shard owning key: the first virtual node at or
// clockwise of the key's hash. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.searchLocked(hashKey(key))].shard
}

// searchLocked finds the index of the first point at or after h,
// wrapping to 0 past the last point. Caller holds r.mu.
func (r *Ring) searchLocked(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Successors returns every distinct shard in clockwise walk order
// starting at key's owner — the tier's failover order when the owner
// is unavailable. Every ring member appears exactly once.
func (r *Ring) Successors(key string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.shards))
	seen := make(map[string]struct{}, len(r.shards))
	start := r.searchLocked(hashKey(key))
	for i := 0; i < len(r.points) && len(seen) < len(r.shards); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.shard]; ok {
			continue
		}
		seen[p.shard] = struct{}{}
		out = append(out, p.shard)
	}
	return out
}

// PickBounded is the bounded-load placement: it walks key's successor
// order and returns the first shard whose load (per the caller's live
// reading) is within factor × (mean + 1). When every shard is over
// the bound the owner wins — shedding is the admission layer's call,
// not the ring's. factor <= 1 takes DefaultLoadFactor.
func (r *Ring) PickBounded(key string, load func(shard string) int64, factor float64) string {
	return pickBounded(r.Successors(key), load, factor)
}

// pickBounded is PickBounded over a successor order already walked, so
// a caller that needs the order too walks the ring once.
func pickBounded(order []string, load func(shard string) int64, factor float64) string {
	if factor <= 1 {
		factor = DefaultLoadFactor
	}
	if len(order) == 0 {
		return ""
	}
	var total int64
	for _, s := range order {
		total += load(s)
	}
	mean := float64(total) / float64(len(order))
	bound := factor * (mean + 1)
	for _, s := range order {
		if float64(load(s)) <= bound {
			return s
		}
	}
	return order[0]
}
