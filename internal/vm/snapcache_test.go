package vm

import (
	"testing"

	"confbench/internal/obs"
	"confbench/internal/tee"
)

// cacheKey names image n of the tests: keys differ by memory size only,
// and the image sizes come from cacheImg.
func cacheKey(n int) SnapshotKey {
	return SnapshotKey{Kind: tee.KindTDX, MemoryMB: n}
}

func cacheImg(mb int) *tee.GuestImage {
	return &tee.GuestImage{Kind: tee.KindTDX, MemoryMB: mb, SizeBytes: int64(mb) << 20}
}

func TestSnapshotCacheLRUEviction(t *testing.T) {
	reg := obs.New()
	c := NewSnapshotCache(3<<20, reg)
	c.Put(cacheKey(1), cacheImg(1))
	c.Put(cacheKey(2), cacheImg(1))
	c.Put(cacheKey(3), cacheImg(1))
	if c.Len() != 3 || c.UsedBytes() != 3<<20 {
		t.Fatalf("len=%d used=%d", c.Len(), c.UsedBytes())
	}
	// Touch image 1 so image 2 becomes least recently used, then overflow.
	if _, ok := c.Get(cacheKey(1)); !ok {
		t.Fatal("image 1 missing")
	}
	c.Put(cacheKey(4), cacheImg(1))
	if _, ok := c.Get(cacheKey(2)); ok {
		t.Error("image 2 survived eviction despite being LRU")
	}
	for _, n := range []int{1, 3, 4} {
		if _, ok := c.Get(cacheKey(n)); !ok {
			t.Errorf("image %d evicted unexpectedly", n)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.MetricID("confbench_snapshot_cache_evictions_total")]; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := snap.Gauges[obs.MetricID("confbench_snapshot_cache_bytes")]; got != 3<<20 {
		t.Errorf("bytes gauge = %d, want %d", got, 3<<20)
	}
}

func TestSnapshotCacheOversizedImageNotCached(t *testing.T) {
	c := NewSnapshotCache(1<<20, obs.New())
	c.Put(cacheKey(5), cacheImg(2))
	if c.Len() != 0 {
		t.Error("image above the whole budget was cached")
	}
}

func TestSnapshotCacheReplaceRefreshes(t *testing.T) {
	c := NewSnapshotCache(4<<20, obs.New())
	c.Put(cacheKey(1), cacheImg(1))
	c.Put(cacheKey(1), cacheImg(2))
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if c.UsedBytes() != 2<<20 {
		t.Errorf("used = %d, want %d", c.UsedBytes(), 2<<20)
	}
	img, ok := c.Get(cacheKey(1))
	if !ok || img.MemoryMB != 2 {
		t.Errorf("got %+v ok=%v, want the replacement image", img, ok)
	}
}

func TestSnapshotCacheNilSafe(t *testing.T) {
	var c *SnapshotCache
	c.Put(cacheKey(1), cacheImg(1))
	if _, ok := c.Get(cacheKey(1)); ok {
		t.Error("nil cache hit")
	}
	if c.Len() != 0 || c.UsedBytes() != 0 || c.Budget() != 0 {
		t.Error("nil cache reports non-zero state")
	}
}
