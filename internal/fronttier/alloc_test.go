//go:build !race

package fronttier

import (
	"fmt"
	"testing"

	"confbench/internal/door"
	"confbench/internal/obs"
)

// TestRouteOrderAllocationCeiling: routing one invoke walks the ring
// once, allocating its successor list, and then the route's shard
// order: two objects. Walking the ring a second time inside the bounded
// pick cost a third (and, past eight shards, a second seen-map).
func TestRouteOrderAllocationCeiling(t *testing.T) {
	cfg := Config{PlaneConfig: door.PlaneConfig{Obs: obs.New()}}
	for i := 0; i < 4; i++ {
		cfg.Shards = append(cfg.Shards, ShardConfig{Name: fmt.Sprintf("shard-%d", i), URL: "http://127.0.0.1:1"})
	}
	tier, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	key := RouteKey("fib-go", "acme")
	var order []*shard
	if got := testing.AllocsPerRun(1000, func() { order = tier.routeOrder(key) }); got > 2 {
		t.Errorf("routeOrder allocates %.0f times, want at most 2", got)
	}
	if len(order) != len(cfg.Shards) || order[0].name != tier.ring.PickBounded(key, func(string) int64 { return 0 }, DefaultLoadFactor) {
		t.Fatalf("route order %v", order)
	}
}
