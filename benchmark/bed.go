package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"confbench"
	"confbench/internal/api"
	"confbench/internal/obs"
	"confbench/internal/workloads"
)

// Warm-up sizes: a fixed number of invokes before anything is timed,
// so connections, pools and lazily built launchers are in place.
const (
	warmupInvokes = 2000
	// tierMixedSLO declares the two objectives tier-mixed must end
	// with in state ok.
	tierMixedSLO = "invoke-availability:availability:success>=99%," +
		"invoke-latency:latency:p99<250ms"
	// Tier-mixed client loop shape: bursts build the admission queue an
	// arrival schedule would, without timers (time.Sleep slack on this
	// box is several invokes long).
	syncPerLoop   = 32
	asyncPerBurst = 16
	obsEvery      = 250 * time.Millisecond
	obsWindow     = 4
)

// bed is one workload's deployment with its generated requests: the
// system under test plus the only inputs it will see.
type bed struct {
	workload string
	cluster  *confbench.Cluster
	reg      *obs.Registry
	inputs
	// tenantClients are tier-mixed's HTTP-edge clients, one per tenant
	// (the tenant is a property of the client). Clients share the
	// process's HTTP connection pool, so two goroutines hold two
	// connections.
	tenantClients map[string]*api.Client
	durableDir    string
}

// inputs are everything a workload's deployment will see, generated
// from the seed, and what the replies must say.
type inputs struct {
	list []request // cycled by the measured load
	warm []request // cycled by the warm-up
	exp  expectations
}

// workloadInputs generates a workload's inputs. It is benchmark work,
// not system set-up, and is not timed.
func workloadInputs(workload string, seed int64) (inputs, error) {
	catalog := workloads.Default()
	var in inputs
	var err error
	switch workload {
	case wlRelaySmall:
		in.list = relaySmallRequests()
		in.warm = in.list
	case wlTierMixed:
		in.list, err = tierMixedRequests(catalog, seed)
		in.warm = in.list
	case wlGuestMix:
		in.list, err = guestMixRequests(catalog, seed)
		in.warm = guestMixWarmup(in.list)
	default:
		err = fmt.Errorf("no invoke inputs for workload %q", workload)
	}
	if err != nil {
		return inputs{}, err
	}
	in.exp, err = computeExpectations(catalog, in.list)
	return in, err
}

// bootBed boots the workload's topology, uploads its functions and
// runs the fixed warm-up; the caller times it as set-up.
func bootBed(ctx context.Context, workload string, seed int64, in inputs) (*bed, error) {
	b := &bed{workload: workload, reg: confbench.NewObsRegistry(), inputs: in}
	opts := []confbench.Option{
		confbench.WithSeed(seed),
		confbench.WithObsRegistry(b.reg),
		confbench.WithTransport("binary"),
	}
	switch workload {
	case wlRelaySmall:
		opts = append(opts, confbench.WithTEEs(confbench.KindSEV), confbench.WithGuestMemoryMB(8))
	case wlTierMixed:
		dir, err := os.MkdirTemp("", "confbench-benchmark-durable-")
		if err != nil {
			return nil, err
		}
		b.durableDir = dir
		opts = append(opts,
			confbench.WithGuestMemoryMB(8),
			confbench.WithShards(2),
			confbench.WithHostsPerTEE(2),
			confbench.WithWarmPool(2),
			confbench.WithDurableDir(dir),
			confbench.WithSLOSpec(tierMixedSLO),
		)
		for _, t := range tierMixedTenants {
			// Far above offered load: the bucket arithmetic runs on
			// every request, and a shed is a failure.
			opts = append(opts, confbench.WithTenantQuota(t, confbench.TenantLimits{
				RatePerSec: 1e6, Burst: 1 << 20, MaxInFlight: 1 << 16,
			}))
		}
	case wlGuestMix:
		// Defaults: three TEEs, 64 MiB guests, single gateway.
	}
	cluster, err := confbench.New(opts...)
	if err != nil {
		b.removeDurable()
		return nil, err
	}
	b.cluster = cluster
	if workload == wlTierMixed {
		b.tenantClients = make(map[string]*api.Client, len(tierMixedTenants))
		for _, t := range tierMixedTenants {
			c, err := confbench.NewClient(cluster.GatewayURL(), confbench.WithClientTenant(t))
			if err != nil {
				_ = b.close()
				return nil, err
			}
			b.tenantClients[t] = c
		}
	}
	for _, fn := range functionsOf(in.list) {
		if err := cluster.Client().Upload(ctx, fn); err != nil {
			_ = b.close()
			return nil, fmt.Errorf("upload %s: %w", fn.Name, err)
		}
	}
	if err := b.warmUp(ctx); err != nil {
		_ = b.close()
		return nil, err
	}
	return b, nil
}

// client returns the top-door client a request goes through: the
// tenant's HTTP-edge client on tier-mixed, the cluster's binary client
// otherwise.
func (b *bed) client(r request) *api.Client {
	if c, ok := b.tenantClients[r.Tenant]; ok {
		return c
	}
	return b.cluster.Client()
}

// warmUp sends the fixed warm-up through the top door from both
// clients and verifies every reply.
func (b *bed) warmUp(ctx context.Context) error {
	n := warmupInvokes
	if b.workload == wlGuestMix {
		n = len(b.warm) // every launcher path once
	}
	var wg sync.WaitGroup
	errs := make([]error, loadClients)
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += loadClients {
				r := b.warm[i%len(b.warm)]
				resp, err := b.client(r).Invoke(ctx, r.invoke(false))
				if err != nil {
					errs[c] = fmt.Errorf("warm-up %s: %w", r.Function, err)
					return
				}
				if p := b.exp.check(r, &resp); p != "" {
					errs[c] = fmt.Errorf("warm-up: %s", p)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *bed) removeDurable() {
	if b.durableDir != "" {
		_ = os.RemoveAll(b.durableDir)
		b.durableDir = ""
	}
}

// close tears the deployment down and removes its durable directory.
func (b *bed) close() error {
	err := b.cluster.Close()
	b.removeDurable()
	return err
}

// replyHook sees every verified sync reply of a load with the client
// latency it was received at; the traced run collects span trees
// through it and guest-mix its priced times.
type replyHook func(client int, r request, lat time.Duration, resp *api.InvokeResponse)

// syncInvoke issues one synchronous invoke through the top door,
// records it verified or failed, and hands a verified reply to hook.
func (b *bed) syncInvoke(ctx context.Context, c int, r request, trace bool, rec *recorder, hook replyHook) {
	began := time.Now()
	resp, err := b.client(r).Invoke(ctx, r.invoke(trace))
	lat := time.Since(began)
	if err != nil {
		rec.add(opSync, began, 0, fmt.Sprintf("%s: %v", r.Function, err))
		return
	}
	problem := b.exp.check(r, &resp)
	rec.add(opSync, began, resp.WallNs, problem)
	if problem == "" && hook != nil {
		hook(c, r, lat, &resp)
	}
}

// loadBody returns the closed-loop client body of the bed's workload.
// Client c starts at its own offset in the list so the two clients do
// not walk it in lockstep.
func (b *bed) loadBody(ctx context.Context, trace bool, hook replyHook) func(int, *recorder) {
	next := make([]int, loadClients)
	for c := range next {
		next[c] = c * len(b.list) / loadClients
	}
	take := func(c int) request {
		r := b.list[next[c]%len(b.list)]
		next[c]++
		return r
	}
	one := func(c int, rec *recorder) {
		b.syncInvoke(ctx, c, take(c), trace, rec, hook)
	}
	if b.workload != wlTierMixed {
		return one
	}
	lastObs := time.Now()
	return func(c int, rec *recorder) {
		for i := 0; i < syncPerLoop && !rec.done(); i++ {
			one(c, rec)
		}
		b.asyncBurst(ctx, take, c, trace, rec)
		if c == 0 && time.Since(lastObs) >= obsEvery {
			began := time.Now()
			_, err := b.cluster.Client().ObsCluster(ctx, obsWindow)
			problem := ""
			if err != nil {
				problem = "obs cluster: " + err.Error()
			}
			rec.add(opObs, began, 0, problem)
			lastObs = time.Now()
		}
	}
}

// asyncBurst submits asyncPerBurst invokes back to back, then waits
// for each result: the burst queues behind the shard's dispatch slots
// the way a spike of arrivals would.
func (b *bed) asyncBurst(ctx context.Context, take func(int) request, c int, trace bool, rec *recorder) {
	type pending struct {
		r     request
		id    string
		began time.Time
	}
	var burst [asyncPerBurst]pending
	n := 0
	for ; n < asyncPerBurst; n++ {
		r := take(c)
		began := time.Now()
		sub, err := b.client(r).InvokeAsync(ctx, r.invoke(trace))
		if err != nil {
			rec.add(opAsync, began, 0, fmt.Sprintf("async submit %s: %v", r.Function, err))
			break
		}
		burst[n] = pending{r: r, id: sub.ID, began: began}
	}
	for _, p := range burst[:n] {
		resp, err := b.client(p.r).AwaitResult(ctx, p.id, 0)
		if err != nil {
			rec.add(opAsync, p.began, 0, fmt.Sprintf("async await %s: %v", p.r.Function, err))
			continue
		}
		rec.add(opAsync, p.began, resp.WallNs, b.exp.check(p.r, &resp))
	}
}
