package main

import (
	"context"
	"testing"
	"time"
)

// These smokes drive every workload briefly through the same code the
// contract runs use, so a change to an internal API that breaks the
// benchmark fails the repository's tests. They assert correctness and
// completeness only: no timing is compared.

func requireClean(t *testing.T, res *runResult, specs []metricSpec) {
	t.Helper()
	if err := res.complete(specs); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("attempted %d, failed %d, notes %v", res.Attempted, res.Failed, res.Notes)
	}
	if len(res.Metrics) != len(specs) {
		t.Fatalf("%d metrics reported, %d declared", len(res.Metrics), len(specs))
	}
}

func TestSmokeInvokeWorkloads(t *testing.T) {
	for _, w := range []string{wlRelaySmall, wlTierMixed, wlGuestMix} {
		t.Run(w, func(t *testing.T) {
			res, err := runInvokeUntraced(context.Background(), w, 11, 500*time.Millisecond, 1)
			if err != nil {
				t.Fatal(err)
			}
			requireClean(t, res, endToEndSpecs)
			for _, s := range endToEndSpecs {
				if res.Metrics[s.Name].Value <= 0 {
					t.Errorf("%s = %v, want a positive reading", s.Name, res.Metrics[s.Name].Value)
				}
			}
		})
	}
}

// The traced run of relay-small crosses every layer: its own spans,
// counters and ladder, the tier-mixed side run (both carriers, the
// front tier, the drain), the side figure pass and all probes.
func TestSmokeTraced(t *testing.T) {
	res, err := runTraced(context.Background(), wlRelaySmall, 11, 2500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res, perLayerSpecs)
	for _, name := range []string{
		"api.client_self_us", "api.client_http_self_us", "fronttier.invoke_self_us", "gateway.dispatch_self_us",
		"wire.hop_self_us", "hostagent.invoke_self_us", "vm.exec_us", "tee.price_us",
		"wire.frames_per_invoke", "relay.bytes_per_invoke", "trace.attributed_share",
		"async_latency_p50_ms", "bench.faas_ms", "bench.virtual_s_per_pass",
		"wal.put_us", "obs.snapshot_us", "attest.tdx_verify_cold_wall_ms", "migrate.drain_wall_ms",
	} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want a positive reading", name, res.Metrics[name].Value)
		}
	}
	if v := res.Metrics["migrate.drain_failed_invokes"].Value; v != 0 {
		t.Errorf("%v invokes failed during the drain", v)
	}
}

// Two warm-up-sized figure passes: every bench.* entry point runs, the
// digests agree, and nothing went through the gateway.
func TestSmokeFigurePasses(t *testing.T) {
	var digests []string
	for i := 0; i < 2; i++ {
		p, err := runFigurePass(context.Background(), 11, warmFigSizes, false)
		if err != nil {
			t.Fatal(err)
		}
		if p.cells == 0 || p.virtualS <= 0 || len(p.problems) > 0 {
			t.Fatalf("pass %d: cells %d, virtual %v s, problems %v", i+1, p.cells, p.virtualS, p.problems)
		}
		digests = append(digests, p.digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("same-seed passes exported different results: %s vs %s", digests[0], digests[1])
	}
}
