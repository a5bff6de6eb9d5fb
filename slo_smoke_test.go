package confbench_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"confbench"
	"confbench/internal/api"
	"confbench/internal/slo"
)

// This file is the end-to-end SLO check behind `make slo-smoke`: a
// seeded sharded deployment under chaos drives one availability
// objective through the full warn → firing → resolved → ok alert
// cycle on a synthetic sweep clock, with a byte-identical timeline
// across same-seed runs; and a single-gateway and a sharded deployment
// each prove the timeline survives a restart through the federating
// layer's telemetry spill — the pre-shutdown /v1/obs/alerts body
// replays verbatim, and the restored firing state resolves once clean
// sweeps land.

// mustRegister parses one chaos spec and arms it on the plane.
func mustRegister(t *testing.T, plane *confbench.FaultPlane, spec string) {
	t.Helper()
	specs, err := confbench.ParseFaultSpecs(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if err := plane.Register(s); err != nil {
			t.Fatal(err)
		}
	}
}

// getBody fetches one URL and returns the raw response body, so runs
// can be compared byte-for-byte.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// sloSmokeSharded boots a seeded two-shard deployment evaluating an
// availability and a migration-downtime objective at the front tier,
// drives the availability objective through warn → firing → resolved
// → ok by faulting both TDX hosts mid-run, drains a SEV host to feed
// the downtime objective, and returns the raw /v1/obs/alerts body.
func sloSmokeSharded(t *testing.T, seed int64) []byte {
	t.Helper()
	ctx := context.Background()
	plane := confbench.NewFaultPlane(seed)
	// Latency chaos on the migration stream: every chunk pays 1ms, so
	// the drain below exercises the downtime objective under faults.
	mustRegister(t, plane, "migrate.stream:latency:1.0:latency=1ms")
	c, err := confbench.New(
		confbench.WithTEEs(confbench.KindSEV, confbench.KindTDX),
		confbench.WithSeed(seed),
		confbench.WithGuestMemoryMB(8),
		confbench.WithObsRegistry(confbench.NewObsRegistry()),
		confbench.WithFaultPlane(plane),
		confbench.WithHostsPerTEE(2),
		confbench.WithWarmPool(2),
		confbench.WithShards(2),
		// No breaker trips: the objectives must see every failure as a
		// 5xx, not have the pools quietly absorb the bad hosts.
		confbench.WithBreakerThreshold(1000, time.Second),
		confbench.WithSLOSpec(
			"invoke-availability:availability:success>=99%:short=1:long=2:warn=2,"+
				"migration-downtime:downtime:p99<1s:short=1:long=2"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One attempt per call: a failed invoke must count exactly one
	// client-visible failure (the tier's shard failover still means
	// one bad invoke lands one 5xx per shard).
	client, err := api.New(c.GatewayURL(), api.WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Upload(ctx, confbench.Function{
		Name: "slo-smoke", Language: "go", Workload: "cpustress",
	}); err != nil {
		t.Fatal(err)
	}

	tier := c.FrontTier()
	base := time.Unix(1_700_000_000, 0)
	sweep := func(n int) {
		tier.ScrapeOnce(ctx, base.Add(time.Duration(n)*time.Second))
	}
	invoke := func(kind confbench.Kind, wantErr bool) {
		t.Helper()
		_, err := client.Invoke(ctx, confbench.InvokeRequest{
			Function: "slo-smoke", Secure: true, TEE: kind, Scale: 1,
		})
		if wantErr != (err != nil) {
			t.Fatalf("invoke on %s: wantErr=%v, got %v", kind, wantErr, err)
		}
	}
	good := func(n int) {
		for i := 0; i < n; i++ {
			invoke(confbench.KindSEV, false)
		}
	}
	bad := func(n int) {
		for i := 0; i < n; i++ {
			invoke(confbench.KindTDX, true)
		}
	}

	// Sweep 1: a clean baseline (mixed platforms, zero failures).
	for i := 0; i < 30; i++ {
		if i%2 == 0 {
			invoke(confbench.KindSEV, false)
		} else {
			invoke(confbench.KindTDX, false)
		}
	}
	sweep(1)
	// Both TDX hosts start failing. Each bad invoke is one 5xx per
	// shard (the tier fails over once), so sweep 2 sees 2 bad of 31:
	// burn 6.45x short / 3.28x long against the 1% budget — over the
	// 2x warn line, under the 14.4x page line.
	mustRegister(t, plane, "hostagent.exec:error:1.0:host=tdx-host")
	mustRegister(t, plane, "hostagent.exec:error:1.0:host=tdx-host-2")
	good(29)
	bad(1)
	sweep(2)
	// Sweep 3: 10 bad of 35 — 28.6x short, 18.2x long: both over the
	// page line, the alert fires.
	good(25)
	bad(5)
	sweep(3)
	// Sweeps 4 and 5: clean traffic; a clean short window resolves the
	// alert, and a clean resolved objective returns to ok.
	good(30)
	sweep(4)
	good(30)
	sweep(5)

	// Drain a SEV host under the migration-stream latency chaos: the
	// recorded downtime feeds the p99<1s objective, which must stay ok.
	report, err := c.DrainHost(ctx, "sev-snp-host")
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(report.Migrations) == 0 {
		t.Fatal("drain migrated nothing; the downtime objective saw no samples")
	}
	sweep(6)

	var statuses []slo.Status
	if err := json.Unmarshal(getBody(t, c.GatewayURL()+"/v1/obs/slo"), &statuses); err != nil {
		t.Fatal(err)
	}
	byName := map[string]slo.Status{}
	for _, s := range statuses {
		byName[s.Objective] = s
	}
	if s := byName["invoke-availability"]; s.State != slo.StateOK {
		t.Errorf("availability objective = %+v, want ok after the recovery sweeps", s)
	}
	down, ok := byName["migration-downtime"]
	if !ok {
		t.Fatalf("no migration-downtime status in %+v", statuses)
	}
	if down.State != slo.StateOK || down.BudgetRemaining != 1 {
		t.Errorf("downtime objective = %+v, want ok with a full budget", down)
	}

	body := getBody(t, c.GatewayURL()+"/v1/obs/alerts")
	var timeline []slo.Transition
	if err := json.Unmarshal(body, &timeline); err != nil {
		t.Fatal(err)
	}
	wantStates := []slo.State{slo.StateWarn, slo.StateFiring, slo.StateResolved, slo.StateOK}
	if len(timeline) != len(wantStates) {
		t.Fatalf("timeline has %d transitions, want %d: %s", len(timeline), len(wantStates), body)
	}
	for i, tr := range timeline {
		if tr.Objective != "invoke-availability" || tr.To != wantStates[i] {
			t.Errorf("transition %d = %+v, want invoke-availability -> %s", i, tr, wantStates[i])
		}
		// Transitions land on the synthetic sweep clock: warn at sweep
		// 2, firing at 3, resolved at 4, ok at 5.
		if want := base.Add(time.Duration(i+2) * time.Second).UnixNano(); tr.AtUnixNs != want {
			t.Errorf("transition %d at %d, want sweep instant %d", i, tr.AtUnixNs, want)
		}
	}
	return body
}

// sloSmokeRestart proves the alert timeline spans a restart of the
// federating layer — the gateway, or the front tier when shards > 1: a
// durable deployment is driven to firing, shut down, and rebooted on
// the same directory — the replayed /v1/obs/alerts body is
// byte-identical to the pre-shutdown one, the firing state is
// restored, and clean post-restart sweeps resolve it (the counter
// reset across the restart must read as burn 0, not as recovery-
// blocking garbage).
func sloSmokeRestart(t *testing.T, shards int) {
	ctx := context.Background()
	dir := t.TempDir()
	const spec = "invoke-availability:availability:success>=99%:short=1:long=2"
	boot := func(plane *confbench.FaultPlane) *confbench.Cluster {
		t.Helper()
		opts := []confbench.Option{
			confbench.WithTEEs(confbench.KindSEV, confbench.KindTDX),
			confbench.WithSeed(7),
			confbench.WithGuestMemoryMB(8),
			confbench.WithObsRegistry(confbench.NewObsRegistry()),
			confbench.WithDurableDir(dir),
			confbench.WithShards(shards),
			confbench.WithBreakerThreshold(1000, time.Second),
			confbench.WithSLOSpec(spec),
		}
		if plane != nil {
			opts = append(opts, confbench.WithFaultPlane(plane))
		}
		c, err := confbench.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Client().Upload(ctx, confbench.Function{
			Name: "slo-smoke", Language: "go", Workload: "cpustress",
		}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	base := time.Unix(1_700_000_000, 0)
	drive := func(c *confbench.Cluster, sweep, goodN, badN int) {
		t.Helper()
		client, err := api.New(c.GatewayURL(), api.WithRetries(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < goodN; i++ {
			if _, err := client.Invoke(ctx, confbench.InvokeRequest{
				Function: "slo-smoke", Secure: true, TEE: confbench.KindSEV, Scale: 1,
			}); err != nil {
				t.Fatalf("good invoke %d: %v", i, err)
			}
		}
		for i := 0; i < badN; i++ {
			if _, err := client.Invoke(ctx, confbench.InvokeRequest{
				Function: "slo-smoke", Secure: true, TEE: confbench.KindTDX, Scale: 1,
			}); err == nil {
				t.Fatalf("bad invoke %d unexpectedly succeeded", i)
			}
		}
		frontPlane(c).ScrapeOnce(ctx, base.Add(time.Duration(sweep)*time.Second))
	}

	// First life: clean baseline, then the single TDX host fails.
	// Sweep 2 (2 bad of 30: 6.7x on both windows, which only hold one
	// delta yet) warns; sweep 3 (10 bad of 30: 33.3x short, 20x long)
	// fires. Behind a tier each bad invoke is a 5xx on both shards — 4
	// of 32 (12.5x, still under the 14.4x page line), then 20 of 40
	// (50x short, 33.3x long) — so the same mix walks the same states.
	plane := confbench.NewFaultPlane(7)
	c1 := boot(plane)
	drive(c1, 1, 30, 0)
	mustRegister(t, plane, "hostagent.exec:error:1.0:host=tdx-host")
	drive(c1, 2, 28, 2)
	drive(c1, 3, 20, 10)
	pre := getBody(t, c1.GatewayURL()+"/v1/obs/alerts")
	var preTimeline []slo.Transition
	if err := json.Unmarshal(pre, &preTimeline); err != nil {
		t.Fatal(err)
	}
	if len(preTimeline) != 2 || preTimeline[1].To != slo.StateFiring {
		t.Fatalf("pre-restart timeline = %s, want ok->warn->firing", pre)
	}
	for _, tr := range preTimeline {
		// A gateway's recorder holds the failed invokes to point at; a
		// tier's holds only the transitions.
		if shards <= 1 && !strings.HasPrefix(tr.Trace, "inv-") {
			t.Errorf("transition %s->%s trace = %q, want a failed-invoke exemplar",
				tr.From, tr.To, tr.Trace)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life on the same dir, faults gone: the replayed timeline
	// must be byte-identical before any new sweep, with firing
	// restored as the live state.
	c2 := boot(nil)
	defer c2.Close()
	post := getBody(t, c2.GatewayURL()+"/v1/obs/alerts")
	if !bytes.Equal(pre, post) {
		t.Fatalf("alert timeline did not survive the restart:\npre:  %s\npost: %s", pre, post)
	}
	var statuses []slo.Status
	if err := json.Unmarshal(getBody(t, c2.GatewayURL()+"/v1/obs/slo"), &statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 || statuses[0].State != slo.StateFiring {
		t.Fatalf("restored status = %+v, want invoke-availability firing", statuses)
	}

	// Recovery: clean sweeps on the rebooted gateway. Its counters
	// restarted from zero — the burn windows must skip the reset (like
	// Series.Rate) and read clean traffic as burn 0.
	drive(c2, 4, 30, 0)
	drive(c2, 5, 30, 0)
	var timeline []slo.Transition
	if err := json.Unmarshal(getBody(t, c2.GatewayURL()+"/v1/obs/alerts"), &timeline); err != nil {
		t.Fatal(err)
	}
	wantStates := []slo.State{slo.StateWarn, slo.StateFiring, slo.StateResolved, slo.StateOK}
	if len(timeline) != len(wantStates) {
		t.Fatalf("restart-spanning timeline has %d transitions, want %d", len(timeline), len(wantStates))
	}
	for i, tr := range timeline {
		if tr.To != wantStates[i] {
			t.Errorf("transition %d = %s->%s, want to %s", i, tr.From, tr.To, wantStates[i])
		}
		if want := base.Add(time.Duration(i+2) * time.Second).UnixNano(); tr.AtUnixNs != want {
			t.Errorf("transition %d at %d, want sweep instant %d", i, tr.AtUnixNs, want)
		}
	}
}

// TestSLOSmoke is the end-to-end SLO drill behind `make slo-smoke`.
func TestSLOSmoke(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		body1 := sloSmokeSharded(t, 7)
		body2 := sloSmokeSharded(t, 7)
		if !bytes.Equal(body1, body2) {
			t.Fatalf("same-seed alert timelines differ:\nrun1: %s\nrun2: %s", body1, body2)
		}
	})
	t.Run("restart", func(t *testing.T) { sloSmokeRestart(t, 0) })
	t.Run("sharded restart", func(t *testing.T) { sloSmokeRestart(t, 2) })
}
