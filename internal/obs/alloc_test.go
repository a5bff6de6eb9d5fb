//go:build !race

package obs

import (
	"strconv"
	"testing"
	"time"
)

// TestSnapshotAllocs pins what a snapshot allocates: the entry list, the
// three maps as they grow, and each histogram's bounds and counts (41
// here, Go 1.24). Ids come from the registry's keys: formatting them
// again while sorting cost 7 384.
func TestSnapshotAllocs(t *testing.T) {
	const ceiling = 45
	r := New()
	for i := 0; i < 64; i++ {
		r.Counter("confbench_invokes_total", "host", strconv.Itoa(i), "status", "ok").Inc()
		r.Gauge("confbench_pool_occupancy", "tee", strconv.Itoa(i)).Set(int64(i))
	}
	for i := 0; i < 8; i++ {
		r.Histogram("confbench_invoke_seconds", "host", strconv.Itoa(i)).Observe(time.Millisecond)
	}
	allocs := testing.AllocsPerRun(20, func() { _ = r.Snapshot() })
	if allocs > ceiling {
		t.Errorf("a snapshot of 136 entries allocates %.0f times, want at most %d", allocs, ceiling)
	}
}
