// Command confbench-gateway runs the ConfBench REST gateway.
//
// Two modes:
//
//   - embedded (default): boots the full paper test bed in-process —
//     one host per TEE (TDX, SEV-SNP, CCA), each with its secure and
//     normal VM — and serves the deployment's own front door on -addr.
//   - external: -hosts FILE points at a JSON file produced by
//     confbench-host invocations ({"name": ..., "endpoints": [...]}
//     entries), and the gateway dispatches to those processes.
//
// Usage:
//
//	confbench-gateway [-addr 127.0.0.1:8080] [-hosts FILE]
//	                  [-policy round-robin|least-loaded] [-shards N]
//	                  [-hosts-per-tee N] [-warm-pool N] [-breaker-threshold N]
//	                  [-breaker-cooldown D] [-scrape-interval D]
//	                  [-durable-dir DIR] [-slo SPEC]
//
// -shards N (> 1, embedded mode only) deploys N gateway shards and
// serves the front tier on -addr instead of a single gateway: invokes
// consistent-hash across the shards, per-tenant admission control
// applies, and the async invoke path (POST /v1/invoke/async) is
// available.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"confbench"
	"confbench/internal/door"
	"confbench/internal/gateway"
	"confbench/internal/hostagent"
	"confbench/internal/profiler"
	"confbench/internal/slo"
	"confbench/internal/wire"
)

// hostEntry is one record of the -hosts file.
type hostEntry struct {
	Name      string               `json:"name"`
	Endpoints []hostagent.Endpoint `json:"endpoints"`
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], sig, nil); err != nil {
		fmt.Fprintln(os.Stderr, "confbench-gateway:", err)
		os.Exit(1)
	}
}

// run serves until stop delivers; serving (tests) learns the URL the
// door came up on.
func run(args []string, stop <-chan os.Signal, serving func(url string)) error {
	fs := flag.NewFlagSet("confbench-gateway", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	hostsFile := fs.String("hosts", "", "JSON host config (empty = embedded test bed)")
	policy := fs.String("policy", "round-robin", "pool load balancing: round-robin, least-loaded")
	seed := fs.Int64("seed", 1, "deterministic noise seed (embedded mode)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive failures that trip an endpoint's circuit breaker (0 = default)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = default)")
	scrapeInterval := fs.Duration("scrape-interval", 0, "background telemetry scrape period for /v1/obs/cluster series (0 = scrape only on request)")
	shards := fs.Int("shards", 0, "deploy this many gateway shards behind a front tier served on -addr (embedded mode only, > 1)")
	hostsPerTEE := fs.Int("hosts-per-tee", 0, "host agents per platform in the embedded test bed (0 = one; >= 2 makes drain HOST live-migrate instead of refusing the last host)")
	warmPool := fs.Int("warm-pool", 0, "serve each embedded host's secure VM from a prewarmed guest pool with this high watermark (drain HOST live-migrates only pooled hosts; 0 = no pools, routing-only drain)")
	durableDir := fs.String("durable-dir", "", "spill gateway telemetry (federation sweeps, flight-recorder events) to an append-only log under this directory and replay it on start, so /v1/obs/cluster?window= and /v1/obs/events span restarts (empty = in-memory only)")
	transport := fs.String("transport", "", "outbound hop carrier: httpjson (default, JSON over HTTP) or binary (persistent multiplexed wire frames); inbound always accepts both")
	sloSpec := fs.String("slo", "", `comma-separated SLO objectives evaluated every federation sweep, e.g. "avail:availability:success>=99.9%,lat:latency:p99<250ms:tee=tdx"; serves GET /v1/obs/slo and /v1/obs/alerts`)
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards > 1 && *hostsFile != "" {
		return fmt.Errorf("-shards needs the embedded test bed; it cannot shard an external -hosts fleet")
	}
	if !wire.ValidTransport(*transport) {
		return fmt.Errorf("unknown transport %q (want %q or %q)",
			*transport, wire.TransportHTTPJSON, wire.TransportBinary)
	}
	if *pprofAddr != "" {
		url, stopProf, err := profiler.Enable(*pprofAddr)
		if err != nil {
			return err
		}
		defer stopProf()
		fmt.Fprintln(os.Stderr, "pprof serving", url)
	}

	switch *policy {
	case "round-robin", "least-loaded":
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	if *hostsFile == "" {
		// Embedded mode: the cluster serves its own front door — the
		// front tier when sharded, otherwise the gateway — on -addr, so
		// what a client drains, sweeps or polls is the deployment itself.
		opts := []confbench.Option{
			confbench.WithSeed(*seed), confbench.WithGuestMemoryMB(16),
			confbench.WithShards(*shards), confbench.WithTransport(*transport),
			confbench.WithListenAddr(*addr),
			confbench.WithBreakerThreshold(*breakerThreshold, *breakerCooldown),
			confbench.WithObsScrapeInterval(*scrapeInterval),
			confbench.WithDurableDir(*durableDir), confbench.WithSLOSpec(*sloSpec),
			confbench.WithHostsPerTEE(*hostsPerTEE), confbench.WithWarmPool(*warmPool),
		}
		if *policy == "least-loaded" {
			opts = append(opts, confbench.WithLeastLoaded())
		}
		cluster, err := confbench.New(opts...)
		if err != nil {
			return err
		}
		defer cluster.Close()
		if *shards > 1 {
			fmt.Fprintf(os.Stderr, "front tier serving %s (%d shards, embedded test bed: %v)\n",
				cluster.GatewayURL(), *shards, cluster.Kinds())
		} else {
			fmt.Fprintf(os.Stderr, "gateway serving %s (embedded test bed: %v)\n", cluster.GatewayURL(), cluster.Kinds())
		}
		return serve(cluster.GatewayURL(), stop, serving)
	}

	// External mode: one gateway over other processes' hosts. Its
	// POST /v1/drain is the built-in routing-only drain: it cannot reach
	// into another process's guests.
	gwCfg := gateway.Config{
		PlaneConfig: door.PlaneConfig{
			ScrapeInterval: *scrapeInterval,
			DurableDir:     *durableDir,
		},
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Transport:        *transport,
	}
	if *policy == "least-loaded" {
		gwCfg.Policy = func() gateway.Policy { return gateway.LeastLoaded{} }
	}
	if *sloSpec != "" {
		var err error
		if gwCfg.SLO, err = slo.ParseSpecs(*sloSpec); err != nil {
			return err
		}
	}
	data, err := os.ReadFile(*hostsFile)
	if err != nil {
		return fmt.Errorf("read hosts file: %w", err)
	}
	var hosts []hostEntry
	if err := json.Unmarshal(data, &hosts); err != nil {
		return fmt.Errorf("parse hosts file: %w", err)
	}
	gw := gateway.New(gwCfg)
	for _, h := range hosts {
		gw.AddHost(h.Name, h.Endpoints)
	}
	url, err := gw.Start(*addr)
	if err != nil {
		return err
	}
	defer gw.Close()
	fmt.Fprintf(os.Stderr, "gateway serving %s (%d external hosts)\n", url, len(hosts))
	return serve(url, stop, serving)
}

// serve parks until stop delivers.
func serve(url string, stop <-chan os.Signal, serving func(string)) error {
	if serving != nil {
		serving(url)
	}
	<-stop
	return nil
}
