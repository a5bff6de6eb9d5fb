// Package confbench is a tool for easy evaluation of confidential
// virtual machines, reproducing the system of the DSN 2025 paper
// "ConfBench: A Tool for Easy Evaluation of Confidential Virtual
// Machines".
//
// ConfBench executes Function-as-a-Service and classic workloads in
// confidential VMs backed by Intel TDX, AMD SEV-SNP, and (simulated)
// ARM CCA, side by side with normal VMs on the same hosts, and
// collects perf-style metrics so that secure/normal overhead ratios
// can be studied per workload, per language runtime, and per TEE.
//
// Because no TEE hardware is available in this environment, the three
// platforms are high-fidelity simulations (see internal/tee/...): the
// TDX module with SEAM transitions and TDREPORTs, the SEV-SNP RMP and
// AMD-SP with a real ECDSA VCEK chain, and the CCA RMM inside an FVP
// simulator model. Workloads perform real computation and meter their
// resource usage; machine profiles and TEE cost models convert that
// usage into virtual execution time, deterministically.
//
// The top-level entry point is Cluster, which boots the full paper
// architecture in-process: one host agent per TEE (each with a
// confidential and a normal VM reachable through socat-style port
// relays), the REST gateway with its TEE pools, and the attestation
// infrastructure (a DCAP quoting enclave plus a simulated Intel PCS
// for TDX, and the AMD-SP certificate chain for SEV-SNP).
//
//	cluster, err := confbench.New()
//	defer cluster.Close()
//	client := cluster.Client()
//	client.Upload(ctx, confbench.Function{Name: "hot", Language: "python", Workload: "cpustress"})
//	resp, err := client.Invoke(ctx, confbench.InvokeRequest{Function: "hot", Secure: true, TEE: confbench.KindTDX})
package confbench

import (
	"time"

	"confbench/internal/core"
	"confbench/internal/faultplane"
	"confbench/internal/fronttier"
	"confbench/internal/obs"
	"confbench/internal/tee"
)

// ClusterConfig parameterizes an in-process ConfBench deployment. See
// internal/core for the orchestration it drives.
type ClusterConfig = core.ClusterConfig

// Cluster is a running in-process ConfBench deployment: per-TEE host
// agents with their secure/normal VM pairs, the REST gateway with its
// TEE pools, and the attestation infrastructure.
type Cluster = core.Cluster

// Option configures a Cluster built by New.
type Option func(*ClusterConfig)

// WithTEEs selects the platforms to deploy (default: TDX, SEV-SNP,
// CCA — the paper's full test bed).
func WithTEEs(kinds ...tee.Kind) Option {
	return func(c *ClusterConfig) { c.TEEs = kinds }
}

// WithSeed sets the seed behind every deterministic noise source.
func WithSeed(seed int64) Option {
	return func(c *ClusterConfig) { c.Seed = seed }
}

// WithLeastLoaded switches pool load balancing from round-robin to
// least-loaded.
func WithLeastLoaded() Option {
	return func(c *ClusterConfig) { c.LeastLoaded = true }
}

// WithGuestMemoryMB sizes the measured boot image of each guest.
func WithGuestMemoryMB(mb int) Option {
	return func(c *ClusterConfig) { c.GuestMemoryMB = mb }
}

// WithWorkers sets the default concurrency for benchmark harnesses
// built on the cluster (0 = serial); their results do not depend on it.
func WithWorkers(n int) Option {
	return func(c *ClusterConfig) { c.Workers = n }
}

// WithObsRegistry points the whole deployment — gateway, pools, host
// agents, TEE backends — at a dedicated metrics registry instead of
// the process-wide default. Pair it with NewObsRegistry for isolated
// measurements.
func WithObsRegistry(r *ObsRegistry) Option {
	return func(c *ClusterConfig) { c.Obs = r }
}

// WithFaultPlane threads a deterministic fault-injection plane through
// every layer of the deployment — relays, host agents, and TEE guests.
// Build one with NewFaultPlane and register FaultSpecs on it (or parse
// a chaos spec string with ParseFaultSpecs).
func WithFaultPlane(p *FaultPlane) Option {
	return func(c *ClusterConfig) { c.Faults = p }
}

// WithHostsPerTEE deploys n host agents per platform, all serving the
// same pool. Chaos runs use ≥2 so a faulted host leaves a healthy
// alternate in rotation.
func WithHostsPerTEE(n int) Option {
	return func(c *ClusterConfig) { c.HostsPerTEE = n }
}

// WithObsScrapeInterval enables periodic federation sweeps on the
// layer that federates the deployment — the front tier over its shards
// when sharded, otherwise the gateway over its host agents: every
// interval it scrapes each target's registry, merges the snapshots
// under shard (or host) labels, feeds the time series behind windowed
// rate queries, evaluates the SLOs and spills the sweep. Without it
// the sweep runs on demand, per GET /v1/obs/cluster request.
func WithObsScrapeInterval(d time.Duration) Option {
	return func(c *ClusterConfig) { c.ObsScrapeInterval = d }
}

// WithWarmPool serves every host's secure VM out of a prewarmed guest
// pool with high watermark n: guests are restored from cached snapshot
// images instead of cold-booted, and a background goroutine refills
// the pool as guests are taken. Enables the shared snapshot cache
// (256 MiB).
func WithWarmPool(n int) Option {
	return func(c *ClusterConfig) { c.WarmPool = n }
}

// WithBreakerThreshold tunes the pools' per-endpoint circuit breakers:
// threshold consecutive retryable failures trip an endpoint out of
// rotation; after cooldown one half-open probe is allowed through.
// Zero values keep the gateway defaults.
func WithBreakerThreshold(threshold int, cooldown time.Duration) Option {
	return func(c *ClusterConfig) {
		c.BreakerThreshold = threshold
		c.BreakerCooldown = cooldown
	}
}

// WithShards deploys n gateway shards behind a front tier that
// consistent-hashes each invoke (function × tenant) across them on a
// bounded-load hash ring, fails over along the ring's successor walk
// when a shard's breaker opens, and serves the async invoke path
// (POST /v1/invoke/async + GET /v1/invoke/{id}). n <= 1 keeps the
// single-gateway deployment.
func WithShards(n int) Option {
	return func(c *ClusterConfig) { c.Shards = n }
}

// WithTenantQuota sets one tenant's front-tier admission limits: a
// token-bucket invoke rate and/or an in-flight cap. Over-quota
// requests shed with HTTP 503 and a Retry-After the client honors.
// Tenants without quotas are unlimited. Only meaningful with
// WithShards(n > 1).
func WithTenantQuota(tenant string, limits TenantLimits) Option {
	return func(c *ClusterConfig) {
		if c.TenantQuotas == nil {
			c.TenantQuotas = make(map[string]fronttier.TenantLimits)
		}
		c.TenantQuotas[tenant] = limits
	}
}

// WithTransport selects the carrier for every hop of the invoke
// pipeline — client→front door, tier→shard, gateway→guest. "httpjson"
// (the default) is one JSON-over-HTTP exchange per call; "binary"
// keeps a persistent multiplexed connection per peer pair carrying
// length-prefixed frames with out-of-order completion by correlation
// ID. Servers accept both carriers regardless, so mixed deployments
// interoperate.
func WithTransport(name string) Option {
	return func(c *ClusterConfig) { c.Transport = name }
}

// WithDurableDir roots the deployment's persistence plane at dir: each
// front door (the gateway, or the front tier and every shard, each
// under its own subdirectory) spills federation sweeps and flight-
// recorder events to an append-only checksummed log and replays them
// on start, so windowed /v1/obs/cluster rates, /v1/obs/events and the
// alert timeline span process restarts. Without it telemetry lives
// only in memory and dies with the process.
func WithDurableDir(dir string) Option {
	return func(c *ClusterConfig) { c.DurableDir = dir }
}

// WithSLOSpec declares service-level objectives for the deployment,
// in the slo package's comma-separated spec grammar — e.g.
// "invoke-availability:availability:success>=99.9%,tdx-latency:latency:p99<250ms:tee=tdx".
// The federating layer (front tier when sharded, gateway otherwise)
// evaluates them with multi-window burn-rate alerting on every
// federation sweep and serves GET /v1/obs/slo and /v1/obs/alerts.
func WithSLOSpec(spec string) Option {
	return func(c *ClusterConfig) { c.SLOSpec = spec }
}

// WithListenAddr serves the deployment's front door — the front tier
// when sharded, otherwise the gateway — on addr instead of an
// ephemeral loopback port.
func WithListenAddr(addr string) Option {
	return func(c *ClusterConfig) { c.ListenAddr = addr }
}

// New boots a deployment configured by opts. Close it when done.
func New(opts ...Option) (*Cluster, error) {
	var cfg ClusterConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.NewCluster(cfg)
}

// ObsRegistry is the observability-plane metrics registry (counters,
// gauges, latency histograms). See internal/obs.
type ObsRegistry = obs.Registry

// NewObsRegistry returns an empty metrics registry, for deployments
// that want isolation from the process-wide default.
func NewObsRegistry() *ObsRegistry { return obs.New() }

// FaultPlane is the deterministic, seedable fault-injection plane.
// See internal/faultplane.
type FaultPlane = faultplane.Plane

// FaultSpec describes one fault to inject: where (injection point,
// TEE/host filters), what (error, latency, drop, crash, slow I/O),
// and how often (seeded probability).
type FaultSpec = faultplane.Spec

// NewFaultPlane returns an empty fault plane whose probability draws
// derive from seed — the same seed reproduces the identical injected
// fault sequence.
func NewFaultPlane(seed int64) *FaultPlane { return faultplane.New(seed) }

// ParseFaultSpecs parses a comma-separated chaos spec string, e.g.
// "hostagent.exec:error:1.0:tee=snp,relay.accept:latency:0.25".
func ParseFaultSpecs(s string) ([]FaultSpec, error) { return faultplane.ParseSpecs(s) }
