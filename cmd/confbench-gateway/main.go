// Command confbench-gateway runs the ConfBench REST gateway.
//
// Two modes:
//
//   - embedded (default): boots the full paper test bed in-process —
//     one host per TEE (TDX, SEV-SNP, CCA), each with its secure and
//     normal VM — and serves the REST API in front of it.
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
	"confbench/internal/fronttier"
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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "confbench-gateway:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
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

	// SLO objectives go to the layer with the federated cluster view:
	// the exposed front tier when sharded, otherwise the exposed
	// gateway (evaluating the same objectives on inner layers too
	// would double-alert).
	var objectives []slo.Objective
	if *sloSpec != "" {
		var err error
		objectives, err = slo.ParseSpecs(*sloSpec)
		if err != nil {
			return err
		}
	}

	var policyFactory func() gateway.Policy
	switch *policy {
	case "round-robin":
		policyFactory = nil
	case "least-loaded":
		policyFactory = func() gateway.Policy { return gateway.LeastLoaded{} }
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	// The exposed gateway is configured the same whether it fronts the
	// embedded test bed or an external -hosts fleet.
	gwCfg := gateway.Config{
		Policy:           policyFactory,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		ScrapeInterval:   *scrapeInterval,
		Transport:        *transport,
		DurableDir:       *durableDir,
		SLO:              objectives,
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *hostsFile == "" {
		// Embedded mode: the Cluster boots gateway + hosts; we expose
		// a second gateway bound to the requested address on the same
		// host endpoints.
		// Sharded deployments spill per shard inside the cluster; the
		// single-gateway mode spills from the exposed gateway below.
		var clusterDurable string
		if *shards > 1 {
			clusterDurable = *durableDir
		}
		opts := []confbench.Option{
			confbench.WithSeed(*seed), confbench.WithGuestMemoryMB(16),
			confbench.WithShards(*shards), confbench.WithTransport(*transport),
			confbench.WithDurableDir(clusterDurable),
			confbench.WithHostsPerTEE(*hostsPerTEE), confbench.WithWarmPool(*warmPool),
		}
		if policyFactory != nil {
			opts = append(opts, confbench.WithLeastLoaded())
		}
		cluster, err := confbench.New(opts...)
		if err != nil {
			return err
		}
		defer cluster.Close()
		if *shards > 1 {
			// Sharded: expose a second front tier bound to the requested
			// address over the cluster's shard gateways.
			tier := cluster.FrontTier()
			cfgs := make([]fronttier.ShardConfig, 0, *shards)
			for _, name := range cluster.ShardNames() {
				cfgs = append(cfgs, fronttier.ShardConfig{Name: name, URL: tier.ShardURL(name)})
			}
			front, err := fronttier.New(fronttier.Config{
				Shards:           cfgs,
				BreakerThreshold: *breakerThreshold,
				BreakerCooldown:  *breakerCooldown,
				Transport:        *transport,
				SLO:              objectives,
			})
			if err != nil {
				return err
			}
			url, err := front.Start(*addr)
			if err != nil {
				return err
			}
			defer front.Close()
			fmt.Fprintf(os.Stderr, "front tier serving %s (%d shards, embedded test bed: %v)\n",
				url, *shards, cluster.Kinds())
			<-sig
			return nil
		}
		gw := gateway.New(gwCfg)
		for _, kind := range cluster.Kinds() {
			agents := cluster.Agents(kind)
			if len(agents) == 0 {
				return fmt.Errorf("no host agents for %s", kind)
			}
			for _, agent := range agents {
				gw.AddHost(agent.Name(), agent.Endpoints())
			}
		}
		// POST /v1/drain on the exposed gateway routes into the
		// cluster's migrating drain (with -hosts, the external-fleet
		// gateway below instead serves its built-in routing-only drain:
		// it cannot reach into another process's guests).
		gw.SetDrainer(cluster.DrainHost)
		url, err := gw.Start(*addr)
		if err != nil {
			return err
		}
		defer gw.Close()
		fmt.Fprintf(os.Stderr, "gateway serving %s (embedded test bed: %v)\n", url, cluster.Kinds())
		<-sig
		return nil
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
	<-sig
	return nil
}
