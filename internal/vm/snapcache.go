package vm

import (
	"container/list"
	"sync"

	"confbench/internal/obs"
	"confbench/internal/tee"
)

// SnapshotKey identifies one reusable guest image: images are shared
// across hosts of the same TEE kind at the same memory size.
type SnapshotKey struct {
	Kind     tee.Kind
	MemoryMB int
}

// SnapshotCache is an LRU cache of guest snapshot images under a byte
// budget. Warm pools consult it before paying a full measured build;
// a cluster typically shares one cache across all its host agents.
// Safe for concurrent use; a nil cache is valid and never hits.
type SnapshotCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  *list.List // front = most recently used; values are *cacheEntry
	items  map[SnapshotKey]*list.Element

	bytes     *obs.Gauge
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

type cacheEntry struct {
	key SnapshotKey
	img *tee.GuestImage
}

// NewSnapshotCache creates a cache holding at most budget bytes of
// images (by their SizeBytes). A non-positive budget caches nothing.
func NewSnapshotCache(budget int64, reg *obs.Registry) *SnapshotCache {
	r := obs.OrDefault(reg)
	return &SnapshotCache{
		budget:    budget,
		order:     list.New(),
		items:     make(map[SnapshotKey]*list.Element),
		bytes:     r.Gauge("confbench_snapshot_cache_bytes"),
		hits:      r.Counter("confbench_snapshot_cache_hits_total"),
		misses:    r.Counter("confbench_snapshot_cache_misses_total"),
		evictions: r.Counter("confbench_snapshot_cache_evictions_total"),
	}
}

// Budget returns the configured byte budget.
func (c *SnapshotCache) Budget() int64 {
	if c == nil {
		return 0
	}
	return c.budget
}

// Get returns the cached image for key, marking it most recently used.
func (c *SnapshotCache) Get(key SnapshotKey) (*tee.GuestImage, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheEntry).img, true
}

// Put stores an image under key, evicting least-recently-used images
// until it fits. An image larger than the whole budget is not cached.
// Replacing an existing key refreshes both the image and its recency.
func (c *SnapshotCache) Put(key SnapshotKey, img *tee.GuestImage) {
	if c == nil || img == nil || img.SizeBytes > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		old := el.Value.(*cacheEntry)
		c.used += img.SizeBytes - old.img.SizeBytes
		old.img = img
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&cacheEntry{key: key, img: img})
		c.used += img.SizeBytes
	}
	for c.used > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.items, ent.key)
		c.used -= ent.img.SizeBytes
		c.evictions.Inc()
	}
	c.bytes.Set(c.used)
}

// Len returns the number of cached images.
func (c *SnapshotCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// UsedBytes returns the bytes currently held.
func (c *SnapshotCache) UsedBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}
