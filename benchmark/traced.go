package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"confbench/internal/api"
	"confbench/internal/obs"
	"confbench/internal/tee"
)

// gaugeWatch polls the front tier's queue gauges while a load runs and
// keeps their maxima; stop returns them.
func gaugeWatch(reg *obs.Registry, shards []string) (stop func() (queueMax, pendingMax int64)) {
	pending := reg.Gauge("confbench_fronttier_async_pending")
	queues := make([]*obs.Gauge, len(shards))
	for i, name := range shards {
		queues[i] = reg.Gauge("confbench_fronttier_queue_depth", "shard", name)
	}
	var queueMax, pendingMax int64
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if v := pending.Value(); v > pendingMax {
					pendingMax = v
				}
				for _, q := range queues {
					if v := q.Value(); v > queueMax {
						queueMax = v
					}
				}
			}
		}
	}()
	return func() (int64, int64) {
		close(quit)
		wg.Wait()
		return queueMax, pendingMax
	}
}

// deploymentCounters sums counter families over every registry of the
// deployment: the cluster's own and, when sharded, each shard's
// (scraped over the shard's public /v1/obs).
func deploymentCounters(ctx context.Context, b *bed) (obs.Snapshot, error) {
	snaps := map[string]obs.Snapshot{"cluster": b.reg.Snapshot()}
	if tier := b.cluster.FrontTier(); tier != nil {
		for _, name := range tier.ShardNames() {
			c, err := api.New(tier.ShardURL(name))
			if err != nil {
				return obs.Snapshot{}, err
			}
			snap, err := c.Obs(ctx)
			if err != nil {
				return obs.Snapshot{}, err
			}
			snaps[name] = snap
		}
	}
	return obs.MergeSnapshotsBy("registry", snaps), nil
}

// relayBytes sums forwarded bytes over every host's relays.
func relayBytes(b *bed) uint64 {
	var total uint64
	for _, kind := range b.cluster.Kinds() {
		for _, a := range b.cluster.Agents(kind) {
			_, n := a.RelayStats()
			total += n
		}
	}
	return total
}

// tally is what a traced run's phases attempted and what went wrong.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) load(s loadSummary, notes []string) {
	t.attempted += s.attempted
	t.failed += s.failed
	t.problems = append(t.problems, notes...)
}

func (t *tally) problem(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// sideShare is the share of a traced run's time given to the side
// runs: the layers the workload does not cross are read on a short
// tier-mixed deployment and one small figure pass, the way the probes
// read single functions, so every traced run reports every layer as
// measured.
const sideShare = 5

// runTraced is the per-layer run of a workload: the workload's own
// phases, the side runs for the layers it does not cross, then the
// probes. Its own readings take precedence over a side run's.
func runTraced(ctx context.Context, workload string, seed int64, d time.Duration) (*runResult, error) {
	res := &runResult{Workload: workload, Seed: seed, Traced: true, Metrics: metricSet{}}
	m := res.Metrics
	var t tally
	baseline := runtime.NumGoroutine()
	side := d / sideShare
	own := d - side

	var err error
	if workload == wlFigures {
		err = tracedFigures(ctx, seed, own/2, m, &t) // passes run to their end; the probes take the rest
	} else {
		err = tracedInvoke(ctx, workload, seed, own, m, &t)
	}
	if err != nil {
		return nil, err
	}
	sideRun := metricSet{}
	if workload != wlTierMixed {
		if err := tracedInvoke(ctx, wlTierMixed, seed, side, sideRun, &t); err != nil {
			return nil, fmt.Errorf("side run %s: %w", wlTierMixed, err)
		}
	}
	if workload != wlFigures {
		p, err := runFigurePass(ctx, seed, warmFigSizes, false)
		if err != nil {
			return nil, fmt.Errorf("side run %s: %w", wlFigures, err)
		}
		t.attempted += p.cells
		t.problems = append(t.problems, p.problems...)
		p.stageMetrics(sideRun, 1)
	}
	for name, v := range sideRun {
		if _, own := m[name]; !own {
			m[name] = v
		}
	}

	leaked := settle(baseline)
	m.set(perLayerSpecs, "runtime.goroutines_leaked", float64(leaked), 1)
	if leaked > 0 {
		t.problem("%d goroutines still running after Close", leaked)
	}
	if err := runProbes(ctx, seed, m); err != nil {
		return nil, err
	}
	res.Attempted = t.attempted + len(t.problems)
	res.Failed = t.failed + len(t.problems)
	res.Correct = res.Failed == 0
	res.Notes = t.problems
	m.set(perLayerSpecs, "failed_share", float64(res.Failed)/math.Max(1, float64(res.Attempted)), res.Attempted)
	return res, nil
}

// tracedInvoke runs the per-layer phases of an invoke workload on a
// deployment of its own and records what they measure in m. In order:
// an untraced load (the reference for the tracing overhead, and the
// source of the counter deltas), the same load with Trace set on every
// request (the span trees), on tier-mixed a host drain under load, and
// the door ladder.
func tracedInvoke(ctx context.Context, workload string, seed int64, d time.Duration, m metricSet, t *tally) error {
	in, err := workloadInputs(workload, seed)
	if err != nil {
		return err
	}
	b, err := bootBed(ctx, workload, seed, in)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			_ = b.close()
		}
	}()
	phase := d / 4

	// Untraced reference load, with the counters read around it.
	before, err := deploymentCounters(ctx, b)
	if err != nil {
		return err
	}
	relayBefore := relayBytes(b)
	var stopWatch func() (int64, int64)
	if tier := b.cluster.FrontTier(); tier != nil {
		stopWatch = gaugeWatch(b.reg, tier.ShardNames())
	}
	ref := runLoad(phase, b.loadBody(ctx, false, nil))
	refSum := ref.summarize()
	t.load(refSum, ref.notes)
	if stopWatch != nil {
		queueMax, pendingMax := stopWatch()
		m.set(perLayerSpecs, "fronttier.queue_depth_max", float64(queueMax), 0)
		m.set(perLayerSpecs, "fronttier.async_pending_max", float64(pendingMax), 0)
	}
	after, err := deploymentCounters(ctx, b)
	if err != nil {
		return err
	}
	invokes := math.Max(1, float64(refSum.attempted-len(refSum.obsLatMs)))
	delta := func(family string) float64 { return familySum(after, family) - familySum(before, family) }
	m.set(perLayerSpecs, "wire.frames_per_invoke", delta("confbench_wire_frames_total")/invokes, int(invokes))
	m.set(perLayerSpecs, "wire.bytes_per_invoke", delta("confbench_wire_bytes_total")/invokes, int(invokes))
	m.set(perLayerSpecs, "relay.bytes_per_invoke", float64(relayBytes(b)-relayBefore)/invokes, int(invokes))
	m.set(perLayerSpecs, "gateway.retries", delta("confbench_invoke_retries_total"), int(invokes))
	m.set(perLayerSpecs, "fronttier.sheds", delta("confbench_fronttier_sheds_total"), int(invokes))
	batches, frames := 0.0, 0.0
	for id, h := range after.Histograms {
		if f, _ := obs.ParseMetricID(id); f == "confbench_wire_batch_size" {
			batches += float64(h.Count - before.Histograms[id].Count)
			frames += h.SumSeconds - before.Histograms[id].SumSeconds
		}
	}
	if batches > 0 {
		m.set(perLayerSpecs, "wire.batch_size_mean", frames/batches, int(batches))
	}
	loadExtras(m, refSum)

	// Traced load: every sync reply carries its span tree.
	aggs := make([]*spanAgg, loadClients)
	for c := range aggs {
		aggs[c] = newSpanAgg()
	}
	traced := runLoad(phase, b.loadBody(ctx, true, func(c int, _ request, lat time.Duration, resp *api.InvokeResponse) {
		aggs[c].add(resp.Trace, lat.Nanoseconds())
	}))
	tracedSum := traced.summarize()
	t.load(tracedSum, traced.notes)
	spans := newSpanAgg()
	for _, a := range aggs {
		spans.merge(a)
	}
	for _, class := range []string{classDispatch, classCheckout, classHop, classAgent, classExec, classPrice} {
		m.set(perLayerSpecs, class, spans.meanUs(class), spans.trees)
	}
	m.set(perLayerSpecs, "trace.overhead_share", 1-tracedSum.opsPerS/refSum.opsPerS, tracedSum.invokes)
	if spans.trees == 0 {
		t.problem("%s: traced load returned no span trees", workload)
	}

	// Host drain with the load still on, where the topology has a second
	// host of the kind to move the guests to: nothing may fail.
	if agents := b.cluster.Agents(tee.KindSEV); len(agents) > 1 {
		drainS, drained, err := drainUnderLoad(ctx, b, agents[1].Name(), phase)
		if err != nil {
			return err
		}
		m.set(perLayerSpecs, "migrate.drain_wall_ms", drainS*1e3, 1)
		m.set(perLayerSpecs, "migrate.drain_failed_invokes", float64(drained.failed), drained.attempted)
		t.load(drained, nil)
	}

	// Door ladder, serial.
	lad, err := newLadder(b)
	if err != nil {
		return err
	}
	attr := newSpanAgg()
	doors, err := lad.doors(b, attr)
	if err != nil {
		_ = lad.close()
		return err
	}
	climbed, err := climb(ctx, doors, b.list, maxLadderRequests, phase/2)
	if err != nil {
		_ = lad.close()
		return err
	}
	nLadder := len(climbed.lat["client"])
	if b.cluster.FrontTier() != nil {
		m.set(perLayerSpecs, "api.client_http_self_us", climbed.diffUs("client", "fronttier"), nLadder)
		m.set(perLayerSpecs, "api.client_self_us", climbed.diffUs("client-binary", "fronttier"), nLadder)
		m.set(perLayerSpecs, "fronttier.invoke_self_us", climbed.diffUs("fronttier", "gateway"), nLadder)
	} else {
		m.set(perLayerSpecs, "api.client_self_us", climbed.diffUs("client", "gateway"), nLadder)
	}
	m.set(perLayerSpecs, "relay.self_us", climbed.diffUs("guest-via-relay", "guest-direct"), nLadder)
	m.set(perLayerSpecs, "vm.invoke_direct_us", climbed.absUs("vm"), nLadder)
	m.set(perLayerSpecs, "faas.launcher_self_us", climbed.diffUs("launcher", "workload"), nLadder)
	// Attribution: the spans decompose the gateway's root span exactly;
	// what lies above it is taken from the ladder, as the difference
	// between the traced client door and the traced gateway door, which
	// are different calls. The share is therefore a check that entering
	// at the gateway costs what the same request costs there when it
	// arrives through the client, not an identity.
	if attr.trees > 0 && attr.wallNs > 0 {
		aboveRootUs := climbed.meanDiffUs("client-traced", "gateway-traced")
		explained := float64(attr.rootNs)/1e3 + aboveRootUs*float64(attr.trees)
		m.set(perLayerSpecs, "trace.attributed_share", explained/(float64(attr.wallNs)/1e3), attr.trees)
	}
	if err := lad.close(); err != nil {
		t.problem("%s: ladder close: %v", workload, err)
	}

	if tier := b.cluster.FrontTier(); tier != nil {
		const sweeps = 10
		d, err := medianOf(sweeps, func(i int) error {
			cs := tier.ScrapeOnce(ctx, time.Now())
			if len(cs.ScrapeErrors) > 0 {
				return fmt.Errorf("scrape errors: %v", cs.ScrapeErrors)
			}
			return nil
		})
		if err != nil {
			return err
		}
		m.set(perLayerSpecs, "fronttier.scrape_once_ms", ms(d), sweeps)
	}

	t.problems = append(t.problems, checkBed(b, nil)...)
	closed = true
	if err := b.close(); err != nil {
		t.problem("%s: close: %v", workload, err)
	}
	return nil
}

// drainUnderLoad drains one host while both clients keep invoking, and
// returns the drain's wall time and the load's counts.
func drainUnderLoad(ctx context.Context, b *bed, host string, d time.Duration) (float64, loadSummary, error) {
	if d > time.Second {
		d = time.Second // the drain takes milliseconds; a second of load brackets it
	}
	var drainS float64
	var drainErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(d / 5) // let the load reach steady state
		began := time.Now()
		_, drainErr = b.cluster.DrainHost(ctx, host)
		drainS = time.Since(began).Seconds()
	}()
	run := runLoad(d, b.loadBody(ctx, false, nil))
	<-done
	if drainErr != nil {
		return 0, loadSummary{}, fmt.Errorf("drain %s: %w", host, drainErr)
	}
	return drainS, run.summarize(), nil
}
