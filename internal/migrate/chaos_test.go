package migrate

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"confbench/internal/faultplane"
	"confbench/internal/meter"
	"confbench/internal/obs"
	"confbench/internal/tee"
	"confbench/internal/tee/sev"
)

// TestChaosMigrationUnderLoad runs 50 seeded migrations of one guest
// ping-ponging between two hosts while invoker goroutines hammer it
// with pricing load the whole time, and migrate.stream severs fire at
// random (seeded) chunk offsets. Per cycle, regardless of outcome:
// exactly one live copy exists and serves, and no invoker ever
// observes a destroyed guest (zero client-visible invoke failures).
// The in-flight invokes drain on the source before cutover swaps the
// serving pointer — the reader lock is held across each invoke, the
// cutover takes the writer side.
//
// Runs under -race via RACE_PKGS.
func TestChaosMigrationUnderLoad(t *testing.T) {
	const cycles = 50

	b, err := sev.NewBackend(sev.Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Launch(tee.GuestConfig{Name: "chaos", MemoryMB: 8})
	if err != nil {
		t.Fatal(err)
	}

	// The serving handle: invokers read-lock it for the whole invoke,
	// cutover write-locks to swap. Destroying the old copy after
	// cutover is therefore safe — no invoke can still hold it.
	var mu sync.RWMutex
	current := g

	var invokeFailures atomic.Int64
	var invokes atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	u := meter.Usage{meter.CPUOps: 1000, meter.IOWriteBytes: 1 << 16}
	base := b.HostProfile().Cost(u)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.RLock()
				serving := current
				if destroyedNoT(serving) {
					invokeFailures.Add(1)
				} else {
					serving.Price(u, base, tee.NewKey("chaos"))
					invokes.Add(1)
				}
				mu.RUnlock()
			}
		}()
	}

	// Hold the migration loop until the invoke load is actually
	// flowing, so every cycle really races live traffic.
	for invokes.Load() == 0 {
		runtime.Gosched()
	}

	// Seeded severs at random chunk offsets; only migrate.stream is
	// armed, so the concurrent invoke load never consumes a draw and
	// the sever schedule is reproducible.
	fp := faultplane.New(2025)
	if err := fp.Register(faultplane.Spec{
		Point: faultplane.PointMigrateStream, Kind: faultplane.KindDrop, Probability: 0.3,
	}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Config{Obs: obs.New(), Faults: fp})
	eng.chunkSize, eng.maxResumes = 4, 6

	hosts := [2]string{"host-a", "host-b"}
	var migrated, rolledBack int
	for c := 0; c < cycles; c++ {
		mu.RLock()
		src := current
		mu.RUnlock()
		res, err := eng.Migrate(Spec{
			Guest: src, Source: b, Dest: b,
			DestConfig: tee.GuestConfig{Name: "chaos", MemoryMB: 8},
			SourceHost: hosts[c%2], DestHost: hosts[(c+1)%2],
			Cutover: func(ng tee.Guest) error {
				mu.Lock()
				current = ng
				mu.Unlock()
				return nil
			},
		})
		// Invariant: exactly one live copy, and it is the serving one.
		mu.RLock()
		serving := current
		mu.RUnlock()
		if destroyedNoT(serving) {
			t.Fatalf("cycle %d: serving guest destroyed", c)
		}
		if err != nil {
			rolledBack++
			if res.Outcome != OutcomeRolledBack {
				t.Fatalf("cycle %d: error %v but outcome %s", c, err, res.Outcome)
			}
			if serving != src {
				t.Fatalf("cycle %d: rollback swapped the serving guest", c)
			}
		} else {
			migrated++
			if res.Outcome != OutcomeMigrated {
				t.Fatalf("cycle %d: outcome %s", c, res.Outcome)
			}
			if serving != res.Guest {
				t.Fatalf("cycle %d: serving guest is not the migrated copy", c)
			}
			if !destroyedNoT(src) {
				t.Fatalf("cycle %d: two live copies after cutover", c)
			}
		}
	}
	close(done)
	wg.Wait()

	if invokeFailures.Load() != 0 {
		t.Errorf("%d client-visible invoke failures", invokeFailures.Load())
	}
	if invokes.Load() == 0 {
		t.Error("no invoke load ran")
	}
	if migrated == 0 {
		t.Errorf("no migration survived the chaos (%d rolled back)", rolledBack)
	}
	if fp.Injected() == 0 {
		t.Error("no severs fired")
	}
	t.Logf("cycles=%d migrated=%d rolled_back=%d invokes=%d severs=%d",
		cycles, migrated, rolledBack, invokes.Load(), fp.Injected())
}

// destroyedNoT is the assertion-free twin of destroyed() for use
// inside invoker goroutines.
func destroyedNoT(g tee.Guest) bool {
	mg, ok := g.(interface{ Destroyed() bool })
	return ok && mg.Destroyed()
}
