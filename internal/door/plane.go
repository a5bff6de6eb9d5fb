package door

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"confbench/internal/api"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/slo"
)

// DefaultScrapeTimeout bounds one target's scrape; a wedged host or
// shard costs one timeout, not the whole sweep.
const DefaultScrapeTimeout = 2 * time.Second

// PlaneConfig is the ops half of a federating door's configuration,
// the same for the gateway and the front tier.
type PlaneConfig struct {
	// Obs is the registry the door and everything behind it in the same
	// process report to (nil = the process-wide default).
	Obs *obs.Registry
	// Faults is the fault plane consulted at obs.scrape per sweep target
	// and at wire.frame per received frame (nil = fault-free).
	Faults *faultplane.Plane
	// ScrapeInterval enables periodic federation sweeps (0 = on demand
	// only, per GET /v1/obs/cluster).
	ScrapeInterval time.Duration
	// DurableDir, when set, persists the plane there: every sweep's
	// series samples and new flight-recorder events are spilled to an
	// append-only checksummed log, and Serve replays the previous
	// process's spill, so ?window= rates, /v1/obs/events and the alert
	// timeline span restarts ("" = in-memory only).
	DurableDir string
	// SLO declares the objectives evaluated on every sweep (nil = no
	// SLO plane; /v1/obs/slo and /v1/obs/alerts serve empty lists).
	SLO []slo.Objective
}

// scrapeTarget is one registry the sweep pulls.
type scrapeTarget struct {
	name   string
	fault  faultplane.Target
	scrape func(context.Context) (obs.Snapshot, error)
}

// Plane is everything a federating front door has besides its dispatch
// logic: the registry, the federation sweep over its scrape targets
// with the series, SLO engine, flight recorder and telemetry spill the
// sweep feeds, the request accounting behind /v1/metrics, the ops
// routes, and the listener lifecycle. The gateway and the front tier
// embed one each; they differ only in the label their own registry
// merges under, the label key targets merge by, and the SLO scope.
type Plane struct {
	reg      *obs.Registry
	faults   *faultplane.Plane
	label    string
	key      string
	series   *obs.SeriesSet
	recorder *obs.Recorder
	slo      *slo.Engine

	interval time.Duration
	timeout  time.Duration

	durableDir    string
	spillFailures *obs.Counter

	targetMu sync.Mutex
	targets  []scrapeTarget

	// Lifecycle: set by Serve, cleared by Close.
	mu      sync.Mutex
	srv     *Server
	spill   *obs.Spill
	stop    chan struct{}
	loop    sync.WaitGroup
	started time.Time

	invocations  atomic.Uint64
	errors       atomic.Uint64
	attestations atomic.Uint64
	perPool      sync.Map // pool name → *atomic.Uint64
}

// NewPlane builds a door's ops plane. The door's own registry merges
// into the federated view as key=label next to its scrape targets;
// scope tells the SLO engine which of those units to count.
func NewPlane(cfg PlaneConfig, label, key string, scope slo.Scope) *Plane {
	p := &Plane{
		reg:        obs.OrDefault(cfg.Obs),
		faults:     cfg.Faults,
		label:      label,
		key:        key,
		series:     obs.NewSeriesSet(obs.DefaultSeriesCapacity),
		recorder:   obs.NewRecorder(obs.DefaultRecorderCapacity),
		interval:   cfg.ScrapeInterval,
		timeout:    DefaultScrapeTimeout,
		durableDir: cfg.DurableDir,
	}
	if len(cfg.SLO) > 0 {
		p.slo = slo.NewEngine(slo.Config{
			Objectives: cfg.SLO,
			Series:     p.series,
			Obs:        p.reg,
			Recorder:   p.recorder,
			Scope:      scope,
		})
	}
	if p.durableDir != "" {
		p.spillFailures = p.reg.Counter("confbench_obs_spill_failures_total")
	}
	return p
}

// Obs exposes the door's metrics registry.
func (p *Plane) Obs() *obs.Registry { return p.reg }

// Series exposes the scrape series (windowed rate queries).
func (p *Plane) Series() *obs.SeriesSet { return p.series }

// Recorder exposes the flight recorder: invoke events on a gateway,
// alert transitions on every door with objectives.
func (p *Plane) Recorder() *obs.Recorder { return p.recorder }

// SLO exposes the SLO engine (nil without objectives).
func (p *Plane) SLO() *slo.Engine { return p.slo }

// CountInvoke accounts one successful invocation, under pool when the
// door has pools.
func (p *Plane) CountInvoke(pool string) {
	p.invocations.Add(1)
	if pool == "" {
		return
	}
	v, ok := p.perPool.Load(pool)
	if !ok {
		v, _ = p.perPool.LoadOrStore(pool, &atomic.Uint64{})
	}
	v.(*atomic.Uint64).Add(1)
}

// CountAttest accounts one successful attestation.
func (p *Plane) CountAttest() { p.attestations.Add(1) }

// CountError accounts one failed request the door's shell did not see
// (it counts the ones it answers itself).
func (p *Plane) CountError() { p.errors.Add(1) }

// metrics serves the door's request accounting.
func (p *Plane) metrics(context.Context) (api.Metrics, error) {
	p.mu.Lock()
	started := p.started
	p.mu.Unlock()
	m := api.Metrics{
		UptimeSeconds: time.Since(started).Seconds(),
		Invocations:   p.invocations.Load(),
		Errors:        p.errors.Load(),
		Attestations:  p.attestations.Load(),
		PerPool:       make(map[string]uint64),
	}
	p.perPool.Range(func(k, v any) bool {
		m.PerPool[k.(string)] = v.(*atomic.Uint64).Load()
		return true
	})
	return m, nil
}

// AddTarget registers a registry for federation sweeps under name; a
// name already registered keeps its first target. fault is what the
// obs.scrape fault point sees.
func (p *Plane) AddTarget(name string, fault faultplane.Target, scrape func(context.Context) (obs.Snapshot, error)) {
	p.targetMu.Lock()
	defer p.targetMu.Unlock()
	for _, t := range p.targets {
		if t.name == name {
			return
		}
	}
	p.targets = append(p.targets, scrapeTarget{name: name, fault: fault, scrape: scrape})
}

// RemoveTarget drops name from the sweep — a drained host's registry
// is gone, and sweeping it would only count scrape failures against a
// machine that left on purpose.
func (p *Plane) RemoveTarget(name string) {
	p.targetMu.Lock()
	defer p.targetMu.Unlock()
	kept := p.targets[:0:0]
	for _, t := range p.targets {
		if t.name != name {
			kept = append(kept, t)
		}
	}
	p.targets = kept
}

// Targets lists the registered scrape targets, sorted.
func (p *Plane) Targets() []string {
	p.targetMu.Lock()
	defer p.targetMu.Unlock()
	out := make([]string, 0, len(p.targets))
	for _, t := range p.targets {
		out = append(out, t.name)
	}
	sort.Strings(out)
	return out
}

// scrapeOne pulls one target's snapshot, bounded by the scrape timeout
// and subject to obs.scrape fault injection.
func (p *Plane) scrapeOne(ctx context.Context, t scrapeTarget) (obs.Snapshot, error) {
	if d := p.faults.Evaluate(faultplane.PointObsScrape, t.fault); d.Inject {
		switch d.Kind {
		case faultplane.KindLatency, faultplane.KindSlowIO:
			time.Sleep(d.Latency)
		default: // error / drop / crash: the scrape fails, counted.
			return obs.Snapshot{}, d.Err
		}
	}
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	snap, err := t.scrape(ctx)
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("scrape %s: %w", t.name, err)
	}
	return snap, nil
}

// ScrapeOnce sweeps every target in name order, merges the snapshots
// (plus the door's own registry under its label) into one cluster
// view, records the sweep into the scrape series at the given instant,
// evaluates the SLOs over it, and spills all of that. A failed target
// is reported in ScrapeErrors and counted, never fatal. Tests drive it
// with synthetic instants to make windowed rates bit-identical.
func (p *Plane) ScrapeOnce(ctx context.Context, at time.Time) obs.ClusterSnapshot {
	p.targetMu.Lock()
	targets := append([]scrapeTarget(nil), p.targets...)
	p.targetMu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].name < targets[j].name })

	per := map[string]obs.Snapshot{p.label: p.reg.Snapshot()}
	var scrapeErrs map[string]string
	for _, t := range targets {
		snap, err := p.scrapeOne(ctx, t)
		if err != nil {
			p.reg.Counter("confbench_obs_scrape_failures_total", "host", t.name).Inc()
			if scrapeErrs == nil {
				scrapeErrs = make(map[string]string)
			}
			scrapeErrs[t.name] = err.Error()
			continue
		}
		per[t.name] = snap
	}
	names := make([]string, 0, len(per))
	for n := range per {
		names = append(names, n)
	}
	sort.Strings(names)

	merged := obs.MergeSnapshotsBy(p.key, per)
	p.series.RecordSnapshot(at, merged)
	// The door's invoke count gets its own series so the headline rate
	// never depends on which targets answered this sweep.
	invocations := float64(p.invocations.Load())
	p.series.Series(obs.RateInvokesPerSec).Record(at, invocations)
	// SLO evaluation rides the sweep: it records derived good/seen
	// series into the same ring set, and its samples join the spill so
	// burn windows replay across restarts.
	var sloSamples map[string]float64
	if p.slo != nil {
		sloSamples = p.slo.Evaluate(at, merged).Samples
	}
	p.spillSweep(at, merged, sloSamples, invocations)

	return obs.ClusterSnapshot{Hosts: names, ScrapeErrors: scrapeErrs, Merged: merged}
}

// spillSweep persists one sweep's samples — the points ScrapeOnce just
// fed the in-memory rings — and any new flight-recorder events. A
// spill failure is counted, never fatal: telemetry durability must not
// take the scrape path down.
func (p *Plane) spillSweep(at time.Time, merged obs.Snapshot, sloSamples map[string]float64, invocations float64) {
	p.mu.Lock()
	sp := p.spill
	p.mu.Unlock()
	if sp == nil {
		return
	}
	samples := make(map[string]float64, len(merged.Counters)+len(merged.Histograms)+len(sloSamples)+1)
	for id, v := range merged.Counters {
		samples[id] = float64(v)
	}
	for id, h := range merged.Histograms {
		samples[id+"_count"] = float64(h.Count)
	}
	for id, v := range sloSamples {
		samples[id] = v
	}
	samples[obs.RateInvokesPerSec] = invocations
	if err := sp.FlushSweep(at, samples); err != nil {
		p.spillFailures.Inc()
	}
	if err := sp.FlushEvents(p.recorder.Events()); err != nil {
		p.spillFailures.Inc()
	}
}

// openSpill opens the durable directory and replays the previous
// process's telemetry into the fresh rings, so windowed rates, event
// reads and the alert timeline span the restart.
func (p *Plane) openSpill() (*obs.Spill, error) {
	sp, err := obs.OpenSpill(p.durableDir)
	if err != nil {
		return nil, err
	}
	if _, _, err := sp.Replay(p.series, p.recorder); err != nil {
		_ = sp.Close()
		return nil, fmt.Errorf("replay telemetry spill: %w", err)
	}
	// The replayed recorder carries the previous process's alert
	// transitions; the engine rebuilds its timeline from them.
	p.slo.Restore(p.recorder.Events())
	return sp, nil
}

// Serve opens the telemetry spill, serves cfg's routes plus the ops
// routes on addr ("127.0.0.1:0" for ephemeral), starts the periodic
// sweep when an interval is configured, and returns the base URL. The
// door supplies its layer, its routes and whether its requests are
// instrumented; registry, error accounting and fault plane are the
// plane's.
func (p *Plane) Serve(addr string, cfg Config) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.srv != nil {
		return "", fmt.Errorf("%s: already started", cfg.Layer)
	}
	var sp *obs.Spill
	if p.durableDir != "" {
		var err error
		if sp, err = p.openSpill(); err != nil {
			return "", fmt.Errorf("%s: %w", cfg.Layer, err)
		}
	}
	cfg.Routes = append(p.routes(), cfg.Routes...)
	cfg.Obs, cfg.OnError, cfg.Faults = p.reg, p.CountError, p.faults
	srv, err := Listen(addr, cfg)
	if err != nil {
		if sp != nil {
			_ = sp.Close()
		}
		return "", fmt.Errorf("%s: %w", cfg.Layer, err)
	}
	p.srv, p.spill, p.started = srv, sp, time.Now()
	if p.interval > 0 {
		p.stop = make(chan struct{})
		p.loop.Add(1)
		go p.scrapeLoop(p.stop)
	}
	return "http://" + srv.Addr(), nil
}

// scrapeLoop runs periodic federation sweeps until stop closes.
func (p *Plane) scrapeLoop(stop <-chan struct{}) {
	defer p.loop.Done()
	ticker := time.NewTicker(p.interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			p.ScrapeOnce(context.Background(), now)
		}
	}
}

// BaseURL returns the served URL (empty before Serve).
func (p *Plane) BaseURL() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.srv == nil {
		return ""
	}
	return "http://" + p.srv.Addr()
}

// Close stops the periodic sweep and waits for one in flight, shuts the
// listener down, then flushes the events recorded since the last sweep
// and releases the spill so a successor process can reopen the
// directory. The door closes its outbound transport after this
// returns: nothing of the plane scrapes through it any more.
func (p *Plane) Close() error {
	p.mu.Lock()
	srv, sp, stop := p.srv, p.spill, p.stop
	p.srv, p.spill, p.stop = nil, nil, nil
	p.mu.Unlock()
	if stop != nil {
		close(stop)
		p.loop.Wait()
	}
	var errs []error
	if srv != nil {
		errs = append(errs, srv.Close())
	}
	if sp != nil {
		errs = append(errs, sp.FlushEvents(p.recorder.Events()), sp.Close())
	}
	return errors.Join(errs...)
}
