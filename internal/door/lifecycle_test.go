package door_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/core"
	"confbench/internal/door"
	"confbench/internal/faultplane"
	"confbench/internal/fronttier"
	"confbench/internal/gateway"
	"confbench/internal/hostagent"
	"confbench/internal/obs"
	"confbench/internal/tee"
)

// obsServer answers both scrape spellings — a guest's /guest/v1/obs and
// a shard's /v1/obs — with an empty registry's snapshot.
func obsServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := obs.New()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, reg.Snapshot())
	}))
	t.Cleanup(srv.Close)
	return srv
}

// sweepHeldOpen arms an obs.scrape latency fault long enough that a
// periodic sweep is certainly in flight when Close is called.
func sweepHeldOpen(t *testing.T) *faultplane.Plane {
	t.Helper()
	faults := faultplane.New(1)
	if err := faults.Register(faultplane.Spec{
		Point: faultplane.PointObsScrape, Kind: faultplane.KindLatency, Probability: 1, Latency: 150 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	return faults
}

// TestCloseWaitsForThePeriodicSweep: with a scrape interval set, the
// layer that federates the deployment sweeps on its own, and its Close
// returns only once a sweep in flight has finished — no goroutine of
// the door outlives it, and nothing was scraped through a transport
// already closed.
func TestCloseWaitsForThePeriodicSweep(t *testing.T) {
	const interval = 5 * time.Millisecond
	cases := []struct {
		name string
		// boot returns the door's Close, its registry, and the names its
		// periodic sweep may target. peer is a registry server standing
		// in for a host or a shard.
		boot func(t *testing.T, faults *faultplane.Plane, peer string) (close func() error, reg *obs.Registry, targets []string)
	}{
		{"gateway", func(t *testing.T, faults *faultplane.Plane, peer string) (func() error, *obs.Registry, []string) {
			reg := obs.New()
			g := gateway.New(gateway.Config{
				PlaneConfig: door.PlaneConfig{Obs: reg, Faults: faults, ScrapeInterval: interval},
			})
			g.SetPostmortemWriter(io.Discard)
			g.AddHost("host-a", []hostagent.Endpoint{{Addr: strings.TrimPrefix(peer, "http://"), Secure: true, TEE: tee.KindTDX}})
			if _, err := g.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			return g.Close, reg, []string{"host-a"}
		}},
		{"tier", func(t *testing.T, faults *faultplane.Plane, peer string) (func() error, *obs.Registry, []string) {
			reg := obs.New()
			tier, err := fronttier.New(fronttier.Config{
				PlaneConfig: door.PlaneConfig{Obs: reg, Faults: faults, ScrapeInterval: interval},
				Shards:      []fronttier.ShardConfig{{Name: "shard-0", URL: peer}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tier.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			return tier.Close, reg, []string{"shard-0"}
		}},
		{"cluster", func(t *testing.T, faults *faultplane.Plane, peer string) (func() error, *obs.Registry, []string) {
			reg := obs.New()
			c, err := core.NewCluster(core.ClusterConfig{
				TEEs: []tee.Kind{tee.KindTDX}, GuestMemoryMB: 8, Obs: reg, Faults: faults, ObsScrapeInterval: interval,
			})
			if err != nil {
				t.Fatal(err)
			}
			return c.Close, reg, []string{"tdx-host"}
		}},
		// Sharded, the tier federates: it sweeps its shards, and no shard
		// sweeps the hosts a second and third time beside it.
		{"sharded cluster", func(t *testing.T, faults *faultplane.Plane, peer string) (func() error, *obs.Registry, []string) {
			reg := obs.New()
			c, err := core.NewCluster(core.ClusterConfig{
				TEEs: []tee.Kind{tee.KindTDX}, GuestMemoryMB: 8, Obs: reg, Faults: faults, ObsScrapeInterval: interval,
				Shards: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			return c.Close, reg, []string{"shard-0", "shard-1"}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peer := obsServer(t).URL
			before := runtime.NumGoroutine()
			faults := sweepHeldOpen(t)
			closeDoor, reg, targets := tc.boot(t, faults, peer)

			deadline := time.Now().Add(5 * time.Second)
			for faults.Injected() == 0 {
				if time.Now().After(deadline) {
					_ = closeDoor()
					t.Fatal("no periodic sweep reached the federating layer")
				}
				time.Sleep(time.Millisecond)
			}
			if err := closeDoor(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if stacks := allStacks(); strings.Contains(stacks, "ScrapeOnce") {
				t.Fatalf("a sweep outlived Close:\n%s", stacks)
			}
			for _, inj := range faults.History() {
				swept := false
				for _, name := range targets {
					swept = swept || inj.Host == name
				}
				if !swept {
					t.Errorf("periodic sweep reached %q, want only %v", inj.Host, targets)
				}
			}
			for id, n := range reg.Snapshot().Counters {
				if strings.HasPrefix(id, "confbench_obs_scrape_failures_total") && n != 0 {
					t.Errorf("%s = %d after Close, want no failed scrape", id, n)
				}
			}
			// Everything else the door started is gone too; idle HTTP
			// connections to the test servers (the carrier's and the REST
			// client's) take a moment to wind down.
			http.DefaultClient.CloseIdleConnections()
			api.CloseIdleConnections()
			for i := 0; runtime.NumGoroutine() > before; i++ {
				if i > 200 {
					t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), allStacks())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

func allStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}
