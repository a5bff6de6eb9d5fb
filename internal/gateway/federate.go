package gateway

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"confbench/internal/api"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/slo"
)

// This file is the gateway's federation scraper: it periodically (or
// on demand) pulls every host agent's metrics registry over the same
// relay hop invokes travel, merges the per-host snapshots into one
// cluster view labeled by host, and feeds the scrape series that back
// windowed rate queries.

// Federation defaults.
const (
	// DefaultScrapeTimeout bounds one host's scrape; a wedged host
	// costs one timeout, not the whole sweep.
	DefaultScrapeTimeout = 2 * time.Second
	// GatewayHostLabel is the host label the gateway's own registry
	// merges under.
	GatewayHostLabel = "gateway"
)

// scrapeTarget is one host agent's registry endpoint.
type scrapeTarget struct {
	host string
	tee  string
	addr string
}

// addScrapeTarget registers a host's registry endpoint for federation
// sweeps. One target per host: the first endpoint wins (all of a
// host's VMs share the host process's registry, so any relay reaches
// the same snapshot).
func (g *Gateway) addScrapeTarget(host, teeKind, addr string) {
	g.scrapeMu.Lock()
	defer g.scrapeMu.Unlock()
	for _, t := range g.scrapeTargets {
		if t.host == host {
			return
		}
	}
	g.scrapeTargets = append(g.scrapeTargets, scrapeTarget{
		host: host,
		tee:  teeKind,
		addr: addr,
	})
}

// removeScrapeTarget drops a host from the federation sweep — a
// drained host's registry is gone, and sweeping it would only count
// scrape failures against a machine that left on purpose.
func (g *Gateway) removeScrapeTarget(host string) {
	g.scrapeMu.Lock()
	defer g.scrapeMu.Unlock()
	kept := g.scrapeTargets[:0]
	for _, t := range g.scrapeTargets {
		if t.host != host {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(g.scrapeTargets); i++ {
		g.scrapeTargets[i] = scrapeTarget{}
	}
	g.scrapeTargets = kept
}

// ScrapeTargets lists the registered scrape hosts, sorted.
func (g *Gateway) ScrapeTargets() []string {
	g.scrapeMu.Lock()
	defer g.scrapeMu.Unlock()
	out := make([]string, 0, len(g.scrapeTargets))
	for _, t := range g.scrapeTargets {
		out = append(out, t.host)
	}
	sort.Strings(out)
	return out
}

// scrapeOne pulls one target's snapshot, bounded by the scrape
// timeout and subject to obs.scrape fault injection.
func (g *Gateway) scrapeOne(ctx context.Context, t scrapeTarget) (obs.Snapshot, error) {
	if d := g.faults.Evaluate(faultplane.PointObsScrape, faultplane.Target{
		TEE: t.tee, Host: t.host,
	}); d.Inject {
		switch d.Kind {
		case faultplane.KindLatency, faultplane.KindSlowIO:
			time.Sleep(d.Latency)
		default: // error / drop / crash: the scrape fails, counted.
			return obs.Snapshot{}, d.Err
		}
	}
	ctx, cancel := context.WithTimeout(ctx, g.scrapeTimeout)
	defer cancel()
	var snap obs.Snapshot
	if err := g.transport.RoundTrip(ctx, t.addr, api.GuestV1Obs+"?format=json", nil, &snap); err != nil {
		return obs.Snapshot{}, fmt.Errorf("scrape %s: %w", t.host, err)
	}
	return snap, nil
}

// ScrapeOnce sweeps every registered host agent, merges the snapshots
// (plus the gateway's own registry under GatewayHostLabel) into one
// cluster view, and records the sweep into the scrape series at the
// given instant. Hosts are swept in sorted order; a failed host is
// reported in ScrapeErrors and counted, never fatal. Tests drive it
// with synthetic instants to make windowed rates bit-identical.
func (g *Gateway) ScrapeOnce(ctx context.Context, at time.Time) obs.ClusterSnapshot {
	g.scrapeMu.Lock()
	targets := append([]scrapeTarget(nil), g.scrapeTargets...)
	g.scrapeMu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].host < targets[j].host })

	perHost := map[string]obs.Snapshot{GatewayHostLabel: g.obsreg.Snapshot()}
	var scrapeErrs map[string]string
	for _, t := range targets {
		snap, err := g.scrapeOne(ctx, t)
		if err != nil {
			g.obsreg.Counter("confbench_obs_scrape_failures_total", "host", t.host).Inc()
			if scrapeErrs == nil {
				scrapeErrs = make(map[string]string)
			}
			scrapeErrs[t.host] = err.Error()
			continue
		}
		perHost[t.host] = snap
	}
	hosts := make([]string, 0, len(perHost))
	for h := range perHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)

	merged := obs.MergeSnapshots(perHost)
	g.series.RecordSnapshot(at, merged)
	// The cluster invoke count gets its own series so the headline
	// rate never depends on which hosts answered this sweep.
	g.series.Series(obs.RateInvokesPerSec).Record(at, float64(g.invocations.Load()))
	// SLO evaluation rides the sweep: it records derived good/seen
	// series into the same ring set, and its samples join the spill
	// below so burn windows replay across restarts.
	var sloSamples map[string]float64
	if g.sloEng != nil {
		sloSamples = g.sloEng.Evaluate(at, merged).Samples
	}
	g.spillSweep(at, merged, sloSamples)

	return obs.ClusterSnapshot{
		Hosts:        hosts,
		ScrapeErrors: scrapeErrs,
		Merged:       merged,
	}
}

// spillSweep persists one sweep's samples — the same points
// RecordSnapshot just fed the in-memory rings, plus any extra derived
// samples (the SLO engine's good/seen series) — and any new flight-
// recorder events. A spill failure is counted, never fatal: telemetry
// durability must not take the scrape path down.
func (g *Gateway) spillSweep(at time.Time, merged obs.Snapshot, extra map[string]float64) {
	g.spillMu.Lock()
	sp := g.spill
	g.spillMu.Unlock()
	if sp == nil {
		return
	}
	samples := make(map[string]float64, len(merged.Counters)+len(merged.Histograms)+len(extra)+1)
	for id, v := range merged.Counters {
		samples[id] = float64(v)
	}
	for id, h := range merged.Histograms {
		samples[id+"_count"] = float64(h.Count)
	}
	for id, v := range extra {
		samples[id] = v
	}
	samples[obs.RateInvokesPerSec] = float64(g.invocations.Load())
	if err := sp.FlushSweep(at, samples); err != nil {
		g.spillFailures.Inc()
	}
	if err := sp.FlushEvents(g.recorder.Events()); err != nil {
		g.spillFailures.Inc()
	}
}

// Series exposes the gateway's scrape series (windowed rate queries).
func (g *Gateway) Series() *obs.SeriesSet { return g.series }

// Recorder exposes the gateway's invoke flight recorder.
func (g *Gateway) Recorder() *obs.Recorder { return g.recorder }

// SetPostmortemWriter redirects flight-recorder postmortems (written
// when an invoke exhausts its retry budget) away from stderr; tests
// point it at a buffer.
func (g *Gateway) SetPostmortemWriter(w io.Writer) {
	g.postmortemMu.Lock()
	g.postmortem = w
	g.postmortemMu.Unlock()
}

// writePostmortem flushes one exhausted invoke's flight-recorder
// event to the postmortem writer.
func (g *Gateway) writePostmortem(ev obs.Event) {
	g.postmortemMu.Lock()
	w := g.postmortem
	g.postmortemMu.Unlock()
	if w == nil {
		return
	}
	fmt.Fprintf(w, "confbench postmortem: %s\n", ev.String())
}

// scrapeLoop runs periodic federation sweeps until stop closes.
func (g *Gateway) scrapeLoop(interval time.Duration, stop <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			g.ScrapeOnce(context.Background(), now)
		}
	}
}

// SLO exposes the gateway's SLO engine (nil without objectives).
func (g *Gateway) SLO() *slo.Engine { return g.sloEng }
