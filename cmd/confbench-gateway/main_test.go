package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"confbench/internal/api"
	"confbench/internal/obs"
)

// TestEmbeddedDrainThroughServedAddress: the door served on -addr is
// the deployment's own, so draining a host through it takes the host
// out of the very pools and sweep a client of that address sees.
func TestEmbeddedDrainThroughServedAddress(t *testing.T) {
	stop := make(chan os.Signal)
	served := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-hosts-per-tee", "2"}, stop,
			func(url string) { served <- url })
	}()
	var url string
	select {
	case url = <-served:
	case err := <-done:
		t.Fatalf("run returned before serving: %v", err)
	}
	defer func() {
		stop <- os.Interrupt
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()
	client, err := api.New(url)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const host = "tdx-host-2"
	if _, err := client.DrainHost(ctx, host); err != nil {
		t.Fatalf("drain %s: %v", host, err)
	}
	pools, err := client.Pools(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pools {
		for _, m := range p.Members {
			if m.Host == host {
				t.Errorf("%s pool still lists drained host: %+v", p.TEE, m)
			}
		}
	}
	failures := obs.MetricID("confbench_obs_scrape_failures_total", "host", "gateway", "exported_host", host)
	for sweep := 1; sweep <= 2; sweep++ {
		cs, err := client.ObsCluster(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs.ScrapeErrors) != 0 {
			t.Errorf("sweep %d scrape errors: %v", sweep, cs.ScrapeErrors)
		}
		if n := cs.Merged.Counters[failures]; n != 0 {
			t.Errorf("sweep %d: %s = %d, want 0", sweep, failures, n)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-bogus"}, nil, nil); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-policy", "random"}, nil, nil); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run([]string{"-hosts", "/no/such/hosts.json"}, nil, nil); err == nil {
		t.Error("missing hosts file accepted")
	}
	bad := filepath.Join(t.TempDir(), "hosts.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-hosts", bad}, nil, nil); err == nil {
		t.Error("malformed hosts file accepted")
	}
	good := filepath.Join(t.TempDir(), "hosts.json")
	if err := os.WriteFile(good, []byte("[]"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-hosts", good, "-shards", "2"}, nil, nil); err == nil {
		t.Error("-shards with an external -hosts fleet accepted")
	}
}
