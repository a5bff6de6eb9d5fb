package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"confbench"
	"confbench/internal/api"
	"confbench/internal/attest"
	"confbench/internal/attest/dcap"
	"confbench/internal/bench"
	"confbench/internal/fronttier"
	"confbench/internal/gateway"
	"confbench/internal/hostagent"
	"confbench/internal/meter"
	"confbench/internal/migrate"
	"confbench/internal/minidb"
	"confbench/internal/mlinfer"
	"confbench/internal/obs"
	"confbench/internal/slo"
	"confbench/internal/stats"
	"confbench/internal/tee"
	"confbench/internal/vm"
	"confbench/internal/wal"
	"confbench/internal/wasmvm"
	"confbench/internal/wire"
	"confbench/internal/workloads"
)

// Probes time public functions of single layers directly, a fixed
// number of calls each, outside any deployment under load. They do not
// depend on the workload: every traced run reports the same probes, so
// a layer's number can be read next to whichever workload moved.

// perOp runs f n times and returns the mean wall time of one call in
// nanoseconds, fractional: a 16 ns operation is not rounded to 16.
func perOp(n int, f func(i int)) float64 {
	began := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(began)) / float64(n)
}

// medianOf runs f n times and returns the median wall time of one call
// in nanoseconds.
func medianOf(n int, f func(i int) error) (float64, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		began := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(began)))
	}
	return median(ds), nil
}

// ns, us and ms read a wall time held in nanoseconds (a time.Duration,
// or the float64 perOp and medianOf return) in the unit named.
func ns[T ~int64 | ~float64](d T) float64 { return float64(d) }
func us[T ~int64 | ~float64](d T) float64 { return float64(d) / 1e3 }
func ms[T ~int64 | ~float64](d T) float64 { return float64(d) / 1e6 }

// prober runs the probes against a small three-TEE deployment of its
// own and a scratch directory, and records into a metric set.
type prober struct {
	ctx     context.Context
	out     metricSet
	cluster *confbench.Cluster
	reg     *obs.Registry
	dir     string
	// populated is a registry snapshot with a realistic number of
	// series (the probe deployment's own after some invokes).
	populated obs.Snapshot
}

func (p *prober) set(name string, v float64, n int) { p.out.set(perLayerSpecs, name, v, n) }

// runProbes boots the probe deployment, runs every probe and tears it
// down. seed only seeds the deployment's pricing noise.
func runProbes(ctx context.Context, seed int64, out metricSet) error {
	dir, err := os.MkdirTemp("", "confbench-benchmark-probes-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := confbench.NewObsRegistry()
	cluster, err := confbench.New(
		confbench.WithSeed(seed),
		confbench.WithGuestMemoryMB(8),
		confbench.WithObsRegistry(reg),
		confbench.WithTransport("binary"),
	)
	if err != nil {
		return err
	}
	defer cluster.Close()
	p := &prober{ctx: ctx, out: out, cluster: cluster, reg: reg, dir: dir}
	for _, probe := range []struct {
		name string
		run  func() error
	}{
		{"populate", p.populate},
		{"obs", p.probeObs},
		{"ops-plane", p.probeOpsPlane},
		{"wal", p.probeWAL},
		{"wire", p.probeWire},
		{"fronttier", p.probeFrontTier},
		{"gateway", p.probeGateway},
		{"hostagent", p.probeHostAgent},
		{"tee", p.probeTEE},
		{"guest", p.probeGuest},
		{"classic", p.probeClassic},
		{"attest", p.probeAttest},
		{"migrate", p.probeMigrate},
	} {
		if err := probe.run(); err != nil {
			return fmt.Errorf("probe %s: %w", probe.name, err)
		}
	}
	return nil
}

// populate drives a few invokes through the probe deployment so its
// registry holds the series a serving deployment has.
func (p *prober) populate() error {
	fn := confbench.Function{Name: "probe-fib", Language: "go", Workload: "fib"}
	if err := p.cluster.Client().Upload(p.ctx, fn); err != nil {
		return err
	}
	for _, kind := range allKinds {
		for _, secure := range []bool{true, false} {
			for i := 0; i < 5; i++ {
				if _, err := p.cluster.Client().Invoke(p.ctx, api.InvokeRequest{
					Function: fn.Name, Scale: 5, TEE: kind, Secure: secure,
				}); err != nil {
					return err
				}
			}
		}
	}
	p.populated = p.reg.Snapshot()
	return nil
}

// probeObs times the metrics hot path and the snapshot/merge pair the
// federation sweep is made of.
func (p *prober) probeObs() error {
	reg := obs.New()
	c := reg.Counter("confbench_probe_total", "route", "/v1/invoke")
	const hot = 500_000
	p.set("obs.counter_inc_ns", ns(perOp(hot, func(int) { c.Inc() })), hot)
	h := reg.Histogram("confbench_probe_seconds", "route", "/v1/invoke")
	p.set("obs.histogram_observe_ns", ns(perOp(hot, func(i int) { h.Observe(time.Duration(i) * time.Microsecond) })), hot)
	rec := obs.NewRecorder(obs.DefaultRecorderCapacity)
	ev := obs.Event{Trace: "inv-1", Function: "fib", TEE: "sev-snp", Host: "sev-snp-host", LatencyNs: 85_000}
	const recs = 200_000
	p.set("obs.recorder_record_ns", ns(perOp(recs, func(int) { rec.Record(ev) })), recs)

	const snaps = 200
	p.set("obs.snapshot_us", us(perOp(snaps, func(int) { _ = p.reg.Snapshot() })), snaps)
	hosts := map[string]obs.Snapshot{"a": p.populated, "b": p.populated, "c": p.populated, "gateway": p.populated}
	const merges = 50
	p.set("obs.merge_us", us(perOp(merges, func(int) { _ = obs.MergeSnapshots(hosts) })), merges)
	return nil
}

// probeOpsPlane times one federation sweep, one SLO evaluation and one
// spill flush: the three steps behind GET /v1/obs/cluster.
func (p *prober) probeOpsPlane() error {
	gw := p.cluster.Gateway()
	const sweeps = 20
	d, err := medianOf(sweeps, func(i int) error {
		cs := gw.ScrapeOnce(p.ctx, time.Unix(1_700_000_000+int64(i), 0))
		if len(cs.ScrapeErrors) > 0 {
			return fmt.Errorf("scrape errors: %v", cs.ScrapeErrors)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("gateway.scrape_once_ms", ms(d), sweeps)

	objectives, err := slo.ParseSpecs(tierMixedSLO)
	if err != nil {
		return err
	}
	eng := slo.NewEngine(slo.Config{Objectives: objectives, Obs: obs.New()})
	merged := obs.MergeSnapshots(map[string]obs.Snapshot{gateway.GatewayHostLabel: p.populated})
	const evals = 200
	p.set("slo.evaluate_us", us(perOp(evals, func(i int) {
		eng.Evaluate(time.Unix(1_700_000_000+int64(i), 0), merged)
	})), evals)

	spill, err := obs.OpenSpill(filepath.Join(p.dir, "spill"))
	if err != nil {
		return err
	}
	defer spill.Close()
	samples := make(map[string]float64, len(merged.Counters))
	for id, v := range merged.Counters {
		samples[id] = float64(v)
	}
	const flushes = 50
	d, err = medianOf(flushes, func(i int) error {
		return spill.FlushSweep(time.Unix(1_700_000_000+int64(i), 0), samples)
	})
	if err != nil {
		return err
	}
	p.set("obs.spill_flush_us", us(d), flushes)
	return nil
}

// probeWAL times the log-structured store under the spill and the
// durable minidb backend: append, fsync'd append, read, the recovery
// scan, and a compaction of a half-dead log.
func (p *prober) probeWAL() error {
	dir := filepath.Join(p.dir, "wal")
	// Automatic compaction off: the probe compacts when it says so.
	log, err := wal.Open(dir, wal.Options{CompactRatio: -1})
	if err != nil {
		return err
	}
	val := make([]byte, 256)
	rand.New(rand.NewSource(1)).Read(val)
	const keys, puts = 2000, 4000
	key := func(i int) string { return fmt.Sprintf("key-%06d", i%keys) }
	var payload int64
	var putErr error
	// Every key is written twice, so half the log is dead afterwards.
	d := perOp(puts, func(i int) {
		if _, err := log.Put(key(i), val); err != nil {
			putErr = err
		}
		payload += int64(len(key(i)) + len(val))
	})
	if putErr != nil {
		return putErr
	}
	p.set("wal.put_us", us(d), puts)
	p.set("wal.write_amp", float64(log.Stats().TotalBytes)/float64(payload), puts)

	const syncs = 50
	d, err = medianOf(syncs, func(i int) error {
		if _, err := log.Put(key(i), val); err != nil {
			return err
		}
		return log.Sync()
	})
	if err != nil {
		return err
	}
	p.set("wal.put_sync_us", us(d), syncs)

	var getErr error
	d = perOp(puts, func(i int) {
		if _, ok, err := log.Get(key(i)); err != nil || !ok {
			getErr = fmt.Errorf("get %s: ok=%v err=%v", key(i), ok, err)
		}
	})
	if getErr != nil {
		return getErr
	}
	p.set("wal.get_us", us(d), puts)
	total := log.Stats().TotalBytes
	if err := log.Close(); err != nil {
		return err
	}

	began := time.Now()
	log, err = wal.Open(dir, wal.Options{CompactRatio: -1})
	if err != nil {
		return err
	}
	defer log.Close()
	p.set("wal.recovery_mb_per_s", float64(total)/(1<<20)/time.Since(began).Seconds(), log.Stats().RecoveredRecords)

	began = time.Now()
	if err := log.Compact(); err != nil {
		return err
	}
	p.set("wal.compact_ms", ms(time.Since(began)), 1)
	return nil
}

// probeWire times the frame codecs and one guest round trip on each
// carrier against a guest agent the probe built: serially for the
// median, and from two concurrent callers for the tail.
func (p *prober) probeWire() error {
	fn := request{Function: "fib", Workload: "fib", Language: "go", Scale: 5}.function()
	req := &api.GuestInvokeRequest{Function: fn, Scale: 5}
	resp := &api.InvokeResponse{Output: "fib(5)=5", WallNs: 31_000, BootstrapNs: 1_200_000, Platform: tee.KindSEV, VM: "sev-snp-host-normal"}
	var encErr error
	buf := wire.GetBuf(0)
	const codecs = 200_000
	p.set("wire.encode_ns", ns(perOp(codecs, func(int) {
		buf = wire.AppendGuestInvoke(buf[:0], req)
		if buf, encErr = wire.AppendInvokeResponse(buf[:0], resp); encErr != nil {
			return
		}
	})), codecs)
	if encErr != nil {
		return encErr
	}
	reqBlob := wire.AppendGuestInvoke(nil, req)
	respBlob, err := wire.AppendInvokeResponse(nil, resp)
	if err != nil {
		return err
	}
	var decErr error
	p.set("wire.decode_ns", ns(perOp(codecs, func(int) {
		if _, err := wire.DecodeGuestInvoke(reqBlob); err != nil {
			decErr = err
		}
		if _, err := wire.DecodeInvokeResponse(respBlob); err != nil {
			decErr = err
		}
	})), codecs)
	if decErr != nil {
		return decErr
	}
	wire.PutBuf(buf)

	pair, err := p.cluster.Pair(tee.KindSEV)
	if err != nil {
		return err
	}
	rig, err := newGuestRig(pair.Normal, obs.New())
	if err != nil {
		return err
	}
	defer rig.close()
	for _, carrier := range []struct {
		name      string
		transport api.Transport
	}{
		{"binary", wire.NewBinary(obs.New())},
		{"httpjson", wire.NewHTTPJSON()},
	} {
		t := carrier.transport
		call := func() error {
			var out api.InvokeResponse
			return t.RoundTrip(p.ctx, rig.direct, api.GuestV1Invoke, req, &out)
		}
		const warm, serial, perCaller = 200, 1500, 3000
		for i := 0; i < warm; i++ {
			if err := call(); err != nil {
				_ = t.Close()
				return err
			}
		}
		d, err := medianOf(serial, func(int) error { return call() })
		if err != nil {
			_ = t.Close()
			return err
		}
		p.set("wire.roundtrip_"+carrier.name+"_us", us(d), serial)

		lat := make([][]float64, loadClients)
		errs := make([]error, loadClients)
		var wg sync.WaitGroup
		for c := 0; c < loadClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perCaller; i++ {
					began := time.Now()
					if err := call(); err != nil {
						errs[c] = err
						return
					}
					lat[c] = append(lat[c], us(time.Since(began)))
				}
			}(c)
		}
		wg.Wait()
		if err := t.Close(); err != nil {
			return err
		}
		var all []float64
		for c := range lat {
			if errs[c] != nil {
				return errs[c]
			}
			all = append(all, lat[c]...)
		}
		p.set("wire.roundtrip_"+carrier.name+"_p99_2c_us", tailOrZero(all, 99), len(all))
	}
	return nil
}

// probeFrontTier times the tier's per-request arithmetic: tenant
// admission, the bounded-load ring pick, and one async result's
// put/await/complete hand-off.
func (p *prober) probeFrontTier() error {
	limits := make(map[string]fronttier.TenantLimits, len(tierMixedTenants))
	for _, t := range tierMixedTenants {
		limits[t] = fronttier.TenantLimits{RatePerSec: 1e6, Burst: 1 << 20, MaxInFlight: 1 << 16}
	}
	adm := fronttier.NewAdmission(limits, time.Now)
	var admErr error
	const admits = 200_000
	p.set("fronttier.admit_ns", ns(perOp(admits, func(i int) {
		release, err := adm.Admit(tierMixedTenants[i%len(tierMixedTenants)])
		if err != nil {
			admErr = err
			return
		}
		release()
	})), admits)
	if admErr != nil {
		return admErr
	}

	ring := fronttier.NewRing(0)
	ring.Add("shard-0")
	ring.Add("shard-1")
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fronttier.RouteKey(fmt.Sprintf("fn-%d", i%16), tierMixedTenants[i%len(tierMixedTenants)])
	}
	load := func(string) int64 { return 1 }
	const picks = 200_000
	p.set("fronttier.ring_pick_ns", ns(perOp(picks, func(i int) {
		_ = ring.PickBounded(keys[i%len(keys)], load, fronttier.DefaultLoadFactor)
	})), picks)

	store := fronttier.NewResultStore(0, 0, time.Now)
	resp := &api.InvokeResponse{Output: "ok", WallNs: 1}
	const parks = 2000
	d, err := medianOf(parks, func(i int) error {
		id := fmt.Sprintf("async-%d", i)
		if err := store.Put(id); err != nil {
			return err
		}
		woke := make(chan bool, 1)
		go func() {
			_, ok := store.Await(p.ctx, id, time.Second)
			woke <- ok
		}()
		store.Complete(id, resp, nil)
		if !<-woke {
			return fmt.Errorf("await %s: not found", id)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("fronttier.result_park_wake_us", us(d), parks)
	return nil
}

// probeGateway times a pool checkout and a breaker check on their own.
func (p *prober) probeGateway() error {
	pool := gateway.NewPool(tee.KindSEV, nil, obs.New())
	pool.Add("host-a", hostagent.Endpoint{Addr: "127.0.0.1:1", TEE: tee.KindSEV, VMName: "a-normal"})
	pool.Add("host-b", hostagent.Endpoint{Addr: "127.0.0.1:2", TEE: tee.KindSEV, VMName: "b-normal"})
	var acqErr error
	const acquires = 200_000
	p.set("gateway.pool_acquire_ns", ns(perOp(acquires, func(int) {
		co, err := pool.Acquire(p.ctx, false)
		if err != nil {
			acqErr = err
			return
		}
		co.Release()
	})), acquires)
	if acqErr != nil {
		return acqErr
	}
	br := gateway.NewBreaker(0, 0, nil)
	now := time.Now()
	const checks = 500_000
	p.set("gateway.breaker_check_ns", ns(perOp(checks, func(int) { _ = br.Available(now) })), checks)
	return nil
}

// probeHostAgent times a host boot (cold launch of the VM pair plus
// guest agents and relays) and a warm-pool checkout.
func (p *prober) probeHostAgent() error {
	backend, err := p.cluster.Backend(tee.KindSEV)
	if err != nil {
		return err
	}
	guest := tee.GuestConfig{Name: "probe-host", MemoryMB: 8}
	const boots = 3
	d, err := medianOf(boots, func(int) error {
		a, err := hostagent.NewAgent(hostagent.AgentConfig{
			Name: "probe-host", Backend: backend, Guest: guest,
			Catalog: p.cluster.Catalog(), Obs: obs.New(),
		})
		if err != nil {
			return err
		}
		return a.Close()
	})
	if err != nil {
		return err
	}
	p.set("hostagent.cold_launch_ms", ms(d), boots)

	pool, err := hostagent.NewGuestPool(hostagent.GuestPoolConfig{
		Backend: backend, Guest: guest, High: 2,
		Cache: vm.NewSnapshotCache(64<<20, obs.New()), Obs: obs.New(), Host: "probe-host",
	})
	if err != nil {
		return err
	}
	defer pool.Shutdown(p.ctx)
	const acquires = 20
	d, err = medianOf(acquires, func(int) error {
		g, err := pool.Acquire()
		if err != nil {
			return err
		}
		pool.Release(g)
		return nil
	})
	if err != nil {
		return err
	}
	p.set("hostagent.warm_acquire_us", us(d), acquires)
	return nil
}

// probeTEE times a measured cold launch per platform, a snapshot
// restore, and one application of a TEE cost model.
func (p *prober) probeTEE() error {
	cfg := tee.GuestConfig{Name: "probe-guest", MemoryMB: 8}
	names := map[tee.Kind]string{tee.KindTDX: "tdx", tee.KindSEV: "sev", tee.KindCCA: "cca"}
	const launches = 3
	for _, kind := range allKinds {
		backend, err := p.cluster.Backend(kind)
		if err != nil {
			return err
		}
		d, err := medianOf(launches, func(int) error {
			g, err := backend.Launch(cfg)
			if err != nil {
				return err
			}
			return g.Destroy()
		})
		if err != nil {
			return err
		}
		p.set("tee.launch_wall_ms."+names[kind], ms(d), launches)
	}
	backend, err := p.cluster.Backend(tee.KindTDX)
	if err != nil {
		return err
	}
	snap, ok := backend.(tee.Snapshotter)
	if !ok {
		return fmt.Errorf("%s backend cannot snapshot", backend.Kind())
	}
	img, err := snap.Snapshot(cfg)
	if err != nil {
		return err
	}
	const restores = 5
	d, err := medianOf(restores, func(int) error {
		g, err := snap.Restore(img, cfg)
		if err != nil {
			return err
		}
		return g.Destroy()
	})
	if err != nil {
		return err
	}
	p.set("tee.restore_wall_us", us(d), restores)

	model, ok := backend.(interface{ CostModel() tee.CostModel })
	if !ok {
		return fmt.Errorf("%s backend exposes no cost model", backend.Kind())
	}
	cm := model.CostModel()
	usage := meter.Usage{meter.CPUOps: 1_000_000, meter.BytesTouched: 1 << 20, meter.Syscalls: 40, meter.IOWriteBytes: 64 << 10}
	base := backend.HostProfile().Cost(usage)
	rng := rand.New(rand.NewSource(1))
	const applies = 100_000
	p.set("tee.costmodel_apply_ns", ns(perOp(applies, func(int) { _ = cm.Apply(usage, base, rng) })), applies)
	return nil
}

// probeGuest times what runs inside the guest: each catalog workload's
// Run at the benchmark scale (summed by kind), the interpreter, and a
// no-op task through the bench runner.
func (p *prober) probeGuest() error {
	catalog := p.cluster.Catalog()
	byKind := map[workloads.Kind]time.Duration{}
	count := map[workloads.Kind]int{}
	for _, name := range catalog.Names() {
		wl, err := catalog.Lookup(name)
		if err != nil {
			return err
		}
		began := time.Now()
		if _, err := wl.Run(meter.NewContext(), benchScale(wl)); err != nil {
			return err
		}
		byKind[wl.Kind] += time.Since(began)
		count[wl.Kind]++
	}
	for kind, metric := range map[workloads.Kind]string{
		workloads.KindCPU: "workloads.cpu_ms", workloads.KindMemory: "workloads.memory_ms",
		workloads.KindIO: "workloads.io_ms", workloads.KindMixed: "workloads.mixed_ms",
	} {
		p.set(metric, ms(byKind[kind]), count[kind])
	}

	mod, err := wasmvm.BuildBenchModule()
	if err != nil {
		return err
	}
	inst, err := wasmvm.NewInstance(mod)
	if err != nil {
		return err
	}
	began := time.Now()
	if _, err := inst.Invoke("fib", 24); err != nil {
		return err
	}
	p.set("wasmvm.instr_per_s", float64(inst.Stats().Instructions)/time.Since(began).Seconds(), int(inst.Stats().Instructions))

	const tasks = 100_000
	runner := bench.Runner{Workers: 1, Obs: obs.New()}
	began = time.Now()
	if err := runner.Run(p.ctx, tasks, func(context.Context, int) error { return nil }); err != nil {
		return err
	}
	p.set("bench.runner_task_ns", ns(time.Since(began))/tasks, tasks)
	return nil
}

// probeClassic times the classic-workload engines on their own: the
// speedtest suite on the in-memory and the durable backend, and one
// image through the MobileNet classifier.
func (p *prober) probeClassic() error {
	const size = 20
	began := time.Now()
	if _, err := minidb.NewSpeedTest(size).Run(meter.NewContext()); err != nil {
		return err
	}
	p.set("minidb.speedtest_ms", ms(time.Since(began)), 1)

	durable, err := minidb.NewDurableBackend(filepath.Join(p.dir, "minidb"))
	if err != nil {
		return err
	}
	st := minidb.NewSpeedTest(size)
	st.Backend = durable
	began = time.Now()
	_, err = st.Run(meter.NewContext())
	elapsed := time.Since(began)
	if cerr := durable.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p.set("minidb.durable_speedtest_ms", ms(elapsed), 1)

	const inputSize = 96
	model, err := mlinfer.NewMobileNet(mlinfer.MobileNetConfig{InputSize: inputSize})
	if err != nil {
		return err
	}
	raw := mlinfer.GenerateImage(0)
	const images = 3
	d, err := medianOf(images, func(int) error {
		m := meter.NewContext()
		img, err := mlinfer.DecodeAndResize(m, raw, inputSize)
		if err != nil {
			return err
		}
		_, err = model.Classify(m, img, 1)
		return err
	})
	if err != nil {
		return err
	}
	p.set("mlinfer.classify_ms", ms(d), images)
	return nil
}

// probeAttest puts the two clocks of the E4 ablation side by side: the
// wall time our code spends producing and checking evidence, and the
// virtual time the model prices for the TDX check with cold and with
// cached collateral.
func (p *prober) probeAttest() error {
	const rounds = 5
	nonce := func(i int) []byte {
		n := make([]byte, attest.NonceSize)
		n[0] = byte(i)
		return n
	}
	verifyRounds := func(a attest.Attester, v attest.Verifier) (attestWall, verifyWall, verifyVirtual float64, err error) {
		var aw, vw, vv []float64
		for i := 0; i < rounds; i++ {
			began := time.Now()
			ev, _, err := a.Attest(p.ctx, nonce(i))
			if err != nil {
				return 0, 0, 0, err
			}
			aw = append(aw, float64(time.Since(began)))
			began = time.Now()
			verdict, timing, err := v.Verify(p.ctx, ev, nonce(i))
			if err != nil {
				return 0, 0, 0, err
			}
			if !verdict.OK {
				return 0, 0, 0, fmt.Errorf("verdict not OK in round %d", i)
			}
			vw = append(vw, float64(time.Since(began)))
			vv = append(vv, float64(timing.Total()))
		}
		return median(aw), median(vw), stats.Mean(vv), nil
	}

	ta, tv, err := p.cluster.TDXAttestation()
	if err != nil {
		return err
	}
	attestWall, coldWall, coldVirtual, err := verifyRounds(ta, tv)
	if err != nil {
		return err
	}
	p.set("attest.tdx_attest_wall_ms", ms(attestWall), rounds)
	p.set("attest.tdx_verify_cold_wall_ms", ms(coldWall), rounds)
	p.set("attest.tdx_check_cold_virtual_ms", ms(coldVirtual), rounds)

	ta, tv, err = p.cluster.TDXAttestation()
	if err != nil {
		return err
	}
	cached, ok := tv.(*dcap.Verifier)
	if !ok {
		return fmt.Errorf("TDX verifier has unexpected type %T", tv)
	}
	cached.CacheCollateral = true
	_, cachedWall, cachedVirtual, err := verifyRounds(ta, cached)
	if err != nil {
		return err
	}
	p.set("attest.tdx_verify_cached_wall_ms", ms(cachedWall), rounds)
	p.set("attest.tdx_check_cached_virtual_ms", ms(cachedVirtual), rounds)

	sa, sv, err := p.cluster.SEVAttestation()
	if err != nil {
		return err
	}
	_, snpWall, _, err := verifyRounds(sa, sv)
	if err != nil {
		return err
	}
	p.set("attest.snp_verify_wall_ms", ms(snpWall), rounds)
	return nil
}

// probeMigrate times the migration stream codec and one whole
// migration between two guests of the probe deployment's TDX backend.
func (p *prober) probeMigrate() error {
	backend, err := p.cluster.Backend(tee.KindTDX)
	if err != nil {
		return err
	}
	mig, ok := backend.(tee.Migrator)
	if !ok {
		return fmt.Errorf("%s backend cannot migrate", backend.Kind())
	}
	cfg := tee.GuestConfig{Name: "probe-migrate", MemoryMB: 8}
	guest, err := backend.Launch(cfg)
	if err != nil {
		return err
	}
	img, err := mig.ExportLive(guest)
	if err != nil {
		_ = guest.Destroy()
		return err
	}
	began := time.Now()
	stream, err := migrate.Encode(img, 0)
	if err != nil {
		_ = guest.Destroy()
		return err
	}
	mib := float64(stream.TotalBytes()) / (1 << 20)
	p.set("migrate.encode_mb_per_s", mib/time.Since(began).Seconds(), stream.NumChunks())

	began = time.Now()
	rx := migrate.NewReceiver()
	if err := rx.FeedHeader(stream.HeaderFrame()); err != nil {
		_ = guest.Destroy()
		return err
	}
	for i := 0; i < stream.NumChunks(); i++ {
		if err := rx.FeedChunk(stream.ChunkFrame(i)); err != nil {
			_ = guest.Destroy()
			return err
		}
	}
	if err := rx.FeedTrailer(stream.TrailerFrame()); err != nil {
		_ = guest.Destroy()
		return err
	}
	if _, err := rx.Image(); err != nil {
		_ = guest.Destroy()
		return err
	}
	p.set("migrate.receive_mb_per_s", mib/time.Since(began).Seconds(), stream.NumChunks())

	eng := migrate.NewEngine(migrate.Config{Obs: obs.New()})
	began = time.Now()
	res, err := eng.Migrate(migrate.Spec{
		Guest: guest, Source: mig, Dest: mig, DestConfig: cfg,
		SourceHost: "probe-src", DestHost: "probe-dst",
	})
	if err != nil {
		_ = guest.Destroy()
		return err
	}
	p.set("migrate.migrate_wall_ms", ms(time.Since(began)), 1)
	if res.Outcome != migrate.OutcomeMigrated {
		return fmt.Errorf("migration outcome %s", res.Outcome)
	}
	return res.Guest.Destroy()
}
