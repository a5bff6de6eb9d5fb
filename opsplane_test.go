package confbench_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"confbench"
	"confbench/internal/api"
	"confbench/internal/door"
	"confbench/internal/obs"
	"confbench/internal/slo"
)

// This file is the differential for the one ops plane: the same seeded
// invoke mix on the same synthetic sweep clock, once behind a single
// gateway and once behind a front tier over two shards, must read the
// same through the federating door — request accounting, SLO state
// sequence and alert timeline, windowed invoke rate, what a restart
// restores from the spill, and how a dead sweep target is reported.

// frontPlane is the ops plane of the layer that federates c.
func frontPlane(c *confbench.Cluster) *door.Plane {
	if tier := c.FrontTier(); tier != nil {
		return tier.Plane
	}
	return c.Gateway().Plane
}

// planeReading is everything the two doors must agree on.
type planeReading struct {
	Metrics      [3]uint64   // /v1/metrics invocations, errors, attestations after the first life
	States       []slo.State // the objective's state after each sweep, both lives
	Timeline     [][3]string // from, to, sweep instant of every transition
	Rate         float64     // confbench_invokes_per_sec over the first life's three sweeps
	ReplayedRate int         // samples of that series a restart restored
	ReplayedSLO  int         // alert transitions among the events a restart restored
	DeadPeer     deadPeer
}

// deadPeer is how a sweep reports a target that no longer answers.
type deadPeer struct {
	Errors   int    // entries in ScrapeErrors
	Shaped   bool   // the dead target's entry reads "scrape <name>: …"
	Listed   bool   // the dead target still among Hosts
	Failures uint64 // confbench_obs_scrape_failures_total{host=<name>}
}

// opsPlaneRun drives one topology (shards <= 1: a single gateway).
func opsPlaneRun(t *testing.T, shards int) planeReading {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	boot := func(faults *confbench.FaultPlane) (*confbench.Cluster, *api.Client) {
		t.Helper()
		c, err := confbench.New(
			confbench.WithTEEs(confbench.KindSEV, confbench.KindTDX),
			confbench.WithSeed(7),
			confbench.WithGuestMemoryMB(8),
			confbench.WithObsRegistry(confbench.NewObsRegistry()),
			confbench.WithFaultPlane(faults),
			confbench.WithShards(shards),
			confbench.WithDurableDir(dir),
			// No breaker trips: the objective must see every failure as a
			// 5xx, not have the pools quietly route around the bad host.
			confbench.WithBreakerThreshold(1000, time.Second),
			// One-sweep windows: a failed invoke is one 5xx behind the
			// gateway and two behind the tier (it fails over once), and
			// the mix below lands both on the same side of every burn line.
			confbench.WithSLOSpec("invoke-availability:availability:success>=99%:short=1:long=1:warn=2"),
		)
		if err != nil {
			t.Fatal(err)
		}
		// One attempt per call: a failed invoke is one client-visible failure.
		client, err := api.New(c.GatewayURL(), api.WithRetries(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Upload(ctx, confbench.Function{Name: "mix", Language: "go", Workload: "cpustress"}); err != nil {
			t.Fatal(err)
		}
		return c, client
	}

	var r planeReading
	base := time.Unix(1_700_000_000, 0)
	rng := rand.New(rand.NewSource(7))
	// sweep runs one interval's traffic in seeded order — good invokes on
	// SEV, bad ones on the faulted TDX host, attestations on SEV — then
	// sweeps at the interval's synthetic instant.
	sweep := func(c *confbench.Cluster, client *api.Client, n, good, bad, attests int) obs.ClusterSnapshot {
		t.Helper()
		ops := append(append(bytes.Repeat([]byte{'g'}, good), bytes.Repeat([]byte{'b'}, bad)...), bytes.Repeat([]byte{'a'}, attests)...)
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		for _, op := range ops {
			var err error
			switch op {
			case 'g':
				_, err = client.Invoke(ctx, confbench.InvokeRequest{Function: "mix", Secure: true, TEE: confbench.KindSEV, Scale: 1})
			case 'b':
				_, err = client.Invoke(ctx, confbench.InvokeRequest{Function: "mix", Secure: true, TEE: confbench.KindTDX, Scale: 1})
			case 'a':
				_, err = client.Attest(ctx, api.AttestRequest{TEE: confbench.KindSEV, Nonce: []byte("differential")})
			}
			if (op == 'b') != (err != nil) {
				t.Fatalf("sweep %d op %c: err = %v", n, op, err)
			}
		}
		cs := frontPlane(c).ScrapeOnce(ctx, base.Add(time.Duration(n)*time.Second))
		r.States = append(r.States, frontPlane(c).SLO().Status()[0].State)
		return cs
	}

	// First life: a clean sweep, the TDX host starts failing, warn, firing.
	faults := confbench.NewFaultPlane(7)
	c1, client := boot(faults)
	sweep(c1, client, 1, 30, 0, 3)
	mustRegister(t, faults, "hostagent.exec:error:1.0:host=tdx-host")
	sweep(c1, client, 2, 28, 2, 0)
	sweep(c1, client, 3, 20, 10, 2)
	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r.Metrics = [3]uint64{m.Invocations, m.Errors, m.Attestations}
	r.Rate = frontPlane(c1).Series().Get(obs.RateInvokesPerSec).Rate(3)
	pre := getBody(t, c1.GatewayURL()+"/v1/obs/alerts")
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life on the same directory, the fault gone: the spill
	// restores the series, the events and the timeline before any sweep.
	c2, client := boot(nil)
	defer func() { _ = c2.Close() }() // the dead-peer step below closes a part early
	if post := getBody(t, c2.GatewayURL()+"/v1/obs/alerts"); !bytes.Equal(pre, post) {
		t.Errorf("shards=%d: alert timeline did not survive the restart:\npre:  %s\npost: %s", shards, pre, post)
	}
	if s := frontPlane(c2).Series().Get(obs.RateInvokesPerSec); s != nil {
		r.ReplayedRate = s.Len()
	}
	evs, err := client.ObsEvents(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if strings.HasPrefix(ev.Function, slo.EventPrefix) {
			r.ReplayedSLO++
		}
	}
	sweep(c2, client, 4, 30, 0, 0)
	sweep(c2, client, 5, 30, 0, 0)
	var timeline []slo.Transition
	if err := json.Unmarshal(getBody(t, c2.GatewayURL()+"/v1/obs/alerts"), &timeline); err != nil {
		t.Fatal(err)
	}
	for _, tr := range timeline {
		at := time.Duration(tr.AtUnixNs - base.UnixNano())
		r.Timeline = append(r.Timeline, [3]string{string(tr.From), string(tr.To), at.String()})
	}

	// A sweep target dies: a host behind the gateway, a shard behind the
	// tier. Both doors report it the same way and sweep on.
	dead := "tdx-host"
	if shards > 1 {
		dead = "shard-1"
		err = c2.CloseShard(dead)
	} else {
		agent, aerr := c2.Agent(confbench.KindTDX)
		if aerr != nil {
			t.Fatal(aerr)
		}
		err = agent.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	cs := sweep(c2, client, 6, 0, 0, 0)
	listed := false
	for _, h := range cs.Hosts {
		listed = listed || h == dead
	}
	failures := frontPlane(c2).Obs().Snapshot().Counters[obs.MetricID("confbench_obs_scrape_failures_total", "host", dead)]
	r.DeadPeer = deadPeer{len(cs.ScrapeErrors), strings.HasPrefix(cs.ScrapeErrors[dead], "scrape "+dead+": "), listed, failures}
	return r
}

func TestOpsPlaneSameBehindBothDoors(t *testing.T) {
	want := planeReading{
		Metrics:      [3]uint64{78, 12, 5},
		States:       []slo.State{slo.StateOK, slo.StateWarn, slo.StateFiring, slo.StateResolved, slo.StateOK, slo.StateOK},
		Timeline:     [][3]string{{"ok", "warn", "2s"}, {"warn", "firing", "3s"}, {"firing", "resolved", "4s"}, {"resolved", "ok", "5s"}},
		Rate:         24, // 30, 58, 78 invocations at one-second sweeps
		ReplayedRate: 3,
		ReplayedSLO:  2,
		DeadPeer:     deadPeer{Errors: 1, Shaped: true, Listed: false, Failures: 1},
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{{"single gateway", 0}, {"two shards", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			if got := opsPlaneRun(t, tc.shards); !reflect.DeepEqual(got, want) {
				t.Errorf("plane read\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
