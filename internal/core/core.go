// Package core implements the heart of ConfBench — the paper's
// primary contribution: the orchestration that boots TEE-enabled
// hosts with confidential/normal VM pairs, wires the REST gateway and
// its load-balanced TEE pools in front of them, and provisions the
// attestation infrastructure. The public entry point is re-exported
// by the root confbench package.
package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"confbench/internal/api"
	"confbench/internal/attest"
	"confbench/internal/attest/dcap"
	"confbench/internal/attest/snp"
	"confbench/internal/door"
	"confbench/internal/faas"
	"confbench/internal/faas/langs"
	"confbench/internal/faultplane"
	"confbench/internal/fronttier"
	"confbench/internal/gateway"
	"confbench/internal/hostagent"
	"confbench/internal/obs"
	"confbench/internal/slo"
	"confbench/internal/tee"
	"confbench/internal/tee/cca"
	"confbench/internal/tee/sev"
	"confbench/internal/tee/tdx"
	"confbench/internal/vm"
	"confbench/internal/wire"
	"confbench/internal/workloads"
)

// ClusterConfig parameterizes an in-process ConfBench deployment.
type ClusterConfig struct {
	// TEEs selects the platforms to deploy (default: TDX, SEV-SNP,
	// CCA — the paper's full test bed).
	TEEs []tee.Kind
	// Seed drives every deterministic noise source.
	Seed int64
	// LeastLoaded switches pool load balancing from round-robin.
	LeastLoaded bool
	// GuestMemoryMB sizes the measured boot image of each guest.
	GuestMemoryMB int
	// Workers is the default concurrency for benchmark harnesses built
	// on this cluster (0 = serial, the deterministic bit-identical
	// path).
	Workers int
	// Obs is the metrics registry the whole deployment reports to
	// (nil = the process-wide default).
	Obs *obs.Registry
	// Faults is the deterministic fault-injection plane threaded
	// through every layer — relays, host agents, TEE guests (nil =
	// fault-free).
	Faults *faultplane.Plane
	// HostsPerTEE deploys that many host agents per platform, all in
	// the same pool (default 1). Chaos runs use ≥2 so a faulted host
	// leaves a healthy alternate.
	HostsPerTEE int
	// BreakerThreshold is the consecutive-failure count that trips a
	// pool endpoint's circuit breaker (0 = the gateway default).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped endpoint stays out of
	// rotation before a half-open probe (0 = the gateway default).
	BreakerCooldown time.Duration
	// ObsScrapeInterval enables periodic federation sweeps on the
	// layer that federates the deployment — the front tier over its
	// shards when Shards > 1, otherwise the gateway over its hosts
	// (0 = on-demand only, via GET /v1/obs/cluster).
	ObsScrapeInterval time.Duration
	// WarmPool, when positive, serves every host's secure VM out of a
	// prewarmed guest pool with this high watermark, restoring guests
	// from the shared snapshot cache (snapshotCacheMB) instead of
	// cold-booting them.
	WarmPool int
	// Shards, when > 1, deploys that many gateway shards behind a
	// front tier that consistent-hashes invokes (function × tenant)
	// across them, with per-tenant admission control and the async
	// invoke path. 0 or 1 keeps the single-gateway deployment.
	Shards int
	// TenantQuotas maps tenants to front-tier admission limits
	// (token-bucket rates and in-flight quotas). Only meaningful with
	// Shards > 1; absent tenants are unlimited.
	TenantQuotas map[string]fronttier.TenantLimits
	// Transport selects the carrier for every hop of the invoke
	// pipeline — client→front door, tier→shard, gateway→guest: "" or
	// "httpjson" is one JSON-over-HTTP exchange per call; "binary" is
	// the persistent multiplexed wire protocol (persistent connection
	// per peer pair, length-prefixed frames, out-of-order completion).
	// Servers accept both carriers regardless.
	Transport string
	// DurableDir, when set, roots the deployment's persistence plane:
	// every front door — the gateway under "gateway", or the tier under
	// "front" and each shard under "shard-N" — spills its federation
	// sweeps and flight-recorder events to an append-only checksummed
	// log there, and replays them on start, so /v1/obs/cluster ?window=
	// rates, /v1/obs/events and the alert timeline span process
	// restarts. Empty keeps telemetry in-memory only.
	DurableDir string
	// SLOSpec declares service-level objectives in the slo spec
	// grammar (comma-separated "name:kind:target[:options]"). The
	// evaluating layer — the front tier when Shards > 1, otherwise
	// the gateway — runs the burn-rate state machine on every
	// federation sweep and serves /v1/obs/slo and /v1/obs/alerts.
	// Empty deploys no SLO plane.
	SLOSpec string
	// ListenAddr is where the deployment's front door — the front tier
	// when Shards > 1, otherwise the gateway — serves ("" = an ephemeral
	// loopback port).
	ListenAddr string
}

// snapshotCacheMB is the byte budget of the cluster-shared snapshot
// image cache that warm pools restore from.
const snapshotCacheMB = 256

func (c ClusterConfig) withDefaults() ClusterConfig {
	if len(c.TEEs) == 0 {
		c.TEEs = []tee.Kind{tee.KindTDX, tee.KindSEV, tee.KindCCA}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.GuestMemoryMB == 0 {
		c.GuestMemoryMB = 64
	}
	if c.HostsPerTEE <= 0 {
		c.HostsPerTEE = 1
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	return c
}

// Cluster is a running in-process ConfBench deployment.
type Cluster struct {
	cfg      ClusterConfig
	catalog  *workloads.Registry
	obsreg   *obs.Registry
	backends map[tee.Kind]tee.Backend
	agents   map[tee.Kind][]*hostagent.Agent
	cache    *vm.SnapshotCache
	// corpus is shared by every pair Pair returns, so a figure row
	// prices the bodies an earlier row, on any platform, executed.
	corpus *vm.Corpus
	client *api.Client
	// clientTransport is the client's binary carrier when
	// cfg.Transport selected it (owned here; closed with the cluster).
	clientTransport api.Transport

	// front is the deployment's one front door, the layer that
	// federates it: the tier when sharded, otherwise gws[0].
	front interface {
		BaseURL() string
		Close() error
	}
	// gws are the gateways routing over the host fleet: the single
	// gateway, or every shard in shard-name order.
	gws        []*gateway.Gateway
	shardNames []string
	tier       *fronttier.Tier

	pcs *dcap.PCS
	qe  *dcap.QuotingEnclave
}

// NewCluster boots the deployment: backends, host agents (each with
// its secure/normal VM pair, guest agents and relays), the gateway,
// and the attestation services.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:      cfg,
		catalog:  workloads.Default(),
		obsreg:   obs.OrDefault(cfg.Obs),
		backends: make(map[tee.Kind]tee.Backend, len(cfg.TEEs)),
		agents:   make(map[tee.Kind][]*hostagent.Agent, len(cfg.TEEs)),
		corpus:   vm.NewCorpus(),
	}
	if err := c.boot(); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Cluster) boot() error {
	if !wire.ValidTransport(c.cfg.Transport) {
		return fmt.Errorf("confbench: unknown transport %q (want %q or %q)",
			c.cfg.Transport, wire.TransportHTTPJSON, wire.TransportBinary)
	}
	// The fault plane reports its injections to the same registry as
	// everything else, so chaos runs read faults and reactions off one
	// snapshot.
	c.cfg.Faults.SetObsRegistry(c.obsreg)
	if c.cfg.WarmPool > 0 {
		// One cache for the whole deployment: hosts of the same kind
		// share snapshot images keyed by (kind, memory size).
		c.cache = vm.NewSnapshotCache(snapshotCacheMB<<20, c.obsreg)
	}
	for _, kind := range c.cfg.TEEs {
		backend, err := c.newBackend(kind)
		if err != nil {
			return err
		}
		c.backends[kind] = backend
		for i := 0; i < c.cfg.HostsPerTEE; i++ {
			name := string(kind) + "-host"
			if i > 0 {
				name = fmt.Sprintf("%s-%d", name, i+1)
			}
			agent, err := hostagent.NewAgent(hostagent.AgentConfig{
				Name:     name,
				Backend:  backend,
				Guest:    tee.GuestConfig{Name: name, MemoryMB: c.cfg.GuestMemoryMB},
				Catalog:  c.catalog,
				Obs:      c.obsreg,
				Faults:   c.cfg.Faults,
				WarmPool: c.cfg.WarmPool,
				Cache:    c.cache,
			})
			if err != nil {
				return fmt.Errorf("confbench: boot %s host: %w", kind, err)
			}
			c.agents[kind] = append(c.agents[kind], agent)
		}
	}

	var policy func() gateway.Policy
	if c.cfg.LeastLoaded {
		policy = func() gateway.Policy { return gateway.LeastLoaded{} }
	}
	// The layer that federates the whole deployment — the front tier
	// when sharded, the gateway otherwise — gets the objectives and the
	// periodic sweep; running either on every shard too would double-
	// alert and sweep the hosts once per shard.
	federating := door.PlaneConfig{
		Obs:            c.obsreg,
		Faults:         c.cfg.Faults,
		ScrapeInterval: c.cfg.ObsScrapeInterval,
	}
	if c.cfg.SLOSpec != "" {
		var err error
		if federating.SLO, err = slo.ParseSpecs(c.cfg.SLOSpec); err != nil {
			return fmt.Errorf("confbench: %w", err)
		}
	}
	// durableDir roots one door's telemetry spill under its own
	// subdirectory of the deployment's persistence plane ("" = no
	// spill), so no two doors' logs interleave.
	durableDir := func(sub string) string {
		if c.cfg.DurableDir == "" {
			return ""
		}
		return filepath.Join(c.cfg.DurableDir, sub)
	}
	// newGateway builds one gateway over the full host fleet. Shards
	// are stateless equivalents: every shard sees every host, so any
	// shard can serve any key and a killed shard loses no capacity.
	// POST /v1/drain on it routes into the cluster's migrating drain,
	// so remote clients get the same semantics as in-process callers of
	// DrainHost.
	newGateway := func(plane door.PlaneConfig) *gateway.Gateway {
		gw := gateway.New(gateway.Config{
			PlaneConfig:      plane,
			Policy:           policy,
			BreakerThreshold: c.cfg.BreakerThreshold,
			BreakerCooldown:  c.cfg.BreakerCooldown,
			Transport:        c.cfg.Transport,
		})
		for _, kind := range c.cfg.TEEs {
			for _, agent := range c.agents[kind] {
				gw.AddHost(agent.Name(), agent.Endpoints())
			}
		}
		gw.SetDrainer(c.DrainHost)
		c.gws = append(c.gws, gw)
		return gw
	}
	var url string
	if c.cfg.Shards > 1 {
		// Each shard reports to its own registry so the tier's
		// federated cluster view keeps shard snapshots distinct; the
		// hosts and backends stay on the cluster registry.
		shardCfgs := make([]fronttier.ShardConfig, 0, c.cfg.Shards)
		for i := 0; i < c.cfg.Shards; i++ {
			name := fmt.Sprintf("shard-%d", i)
			gw := newGateway(door.PlaneConfig{
				Obs: obs.New(), Faults: c.cfg.Faults, DurableDir: durableDir(name),
			})
			u, err := gw.Start("127.0.0.1:0")
			if err != nil {
				return err
			}
			c.shardNames = append(c.shardNames, name)
			shardCfgs = append(shardCfgs, fronttier.ShardConfig{Name: name, URL: u})
		}
		federating.DurableDir = durableDir(fronttier.FrontShardLabel)
		tier, err := fronttier.New(fronttier.Config{
			PlaneConfig:      federating,
			Shards:           shardCfgs,
			Quotas:           c.cfg.TenantQuotas,
			BreakerThreshold: c.cfg.BreakerThreshold,
			BreakerCooldown:  c.cfg.BreakerCooldown,
			Transport:        c.cfg.Transport,
		})
		if err != nil {
			return err
		}
		c.tier, c.front = tier, tier
		if url, err = tier.Start(c.cfg.ListenAddr); err != nil {
			return err
		}
	} else {
		federating.DurableDir = durableDir(gateway.GatewayHostLabel)
		gw := newGateway(federating)
		c.front = gw
		var err error
		if url, err = gw.Start(c.cfg.ListenAddr); err != nil {
			return err
		}
	}
	var clientOpts []api.Option
	if c.cfg.Transport == wire.TransportBinary {
		c.clientTransport = wire.NewBinary(c.obsreg)
		clientOpts = append(clientOpts, api.WithTransport(c.clientTransport))
	}
	client, err := api.New(url, clientOpts...)
	if err != nil {
		return err
	}
	c.client = client

	// Attestation infrastructure for TDX (QE + PCS).
	if b, ok := c.backends[tee.KindTDX]; ok {
		tdxBackend, ok := b.(*tdx.Backend)
		if !ok {
			return errors.New("confbench: TDX backend has unexpected type")
		}
		pcs, err := dcap.NewPCS("confbench-fmspc-0001")
		if err != nil {
			return err
		}
		if err := pcs.Start(); err != nil {
			return err
		}
		c.pcs = pcs
		qe, err := dcap.NewQuotingEnclave(tdxBackend.Module(), "confbench-fmspc-0001")
		if err != nil {
			return err
		}
		c.qe = qe
	}
	return nil
}

func (c *Cluster) newBackend(kind tee.Kind) (tee.Backend, error) {
	switch kind {
	case tee.KindTDX:
		return tdx.NewBackend(tdx.Options{Seed: c.cfg.Seed, Obs: c.obsreg, Faults: c.cfg.Faults})
	case tee.KindSEV:
		return sev.NewBackend(sev.Options{Seed: c.cfg.Seed + 1000, Obs: c.obsreg, Faults: c.cfg.Faults})
	case tee.KindCCA:
		return cca.NewBackend(cca.Options{Seed: c.cfg.Seed + 2000, Obs: c.obsreg, Faults: c.cfg.Faults})
	default:
		return nil, fmt.Errorf("confbench: unsupported TEE %q", kind)
	}
}

// Client returns a REST client bound to the deployment's front door —
// the front tier when sharded, the gateway otherwise.
func (c *Cluster) Client() *api.Client { return c.client }

// Obs returns the registry every layer of the deployment reports to.
func (c *Cluster) Obs() *obs.Registry { return c.obsreg }

// Workers returns the configured default benchmark concurrency.
func (c *Cluster) Workers() int { return c.cfg.Workers }

// GatewayURL returns the front door's base URL: the front tier when
// sharded, the single gateway otherwise.
func (c *Cluster) GatewayURL() string { return c.front.BaseURL() }

// Gateway returns the running gateway, exposing the federation
// scraper and invoke flight recorder to in-process harnesses. Sharded
// deployments return the first shard.
func (c *Cluster) Gateway() *gateway.Gateway { return c.gws[0] }

// FrontTier returns the sharded front tier (nil when Shards <= 1).
func (c *Cluster) FrontTier() *fronttier.Tier { return c.tier }

// Plane returns the ops plane of the layer that federates the
// deployment — the front tier's when sharded, the gateway's otherwise:
// the registry, sweep, series, SLO engine and recorder behind the
// front door's /v1/obs* routes.
func (c *Cluster) Plane() *door.Plane {
	if c.tier != nil {
		return c.tier.Plane
	}
	return c.gws[0].Plane
}

// ShardNames lists the deployed gateway shards in shard order (empty
// when the deployment is not sharded).
func (c *Cluster) ShardNames() []string {
	return append([]string(nil), c.shardNames...)
}

// CloseShard kills one gateway shard mid-run — the chaos hook behind
// a scenario's kill step. The tier's shard breaker trips on the
// dead shard and routes its keys along the ring's successor walk.
func (c *Cluster) CloseShard(name string) error {
	for i, n := range c.shardNames {
		if n == name {
			return c.gws[i].Close()
		}
	}
	return fmt.Errorf("confbench: no shard %q deployed", name)
}

// CloseHost kills one host agent mid-run without draining it — the
// host-side counterpart of CloseShard. The gateways keep routing to it
// until its breakers trip, and federation sweeps report it as a failed
// scrape target.
func (c *Cluster) CloseHost(name string) error {
	if _, _, agent := c.findAgent(name); agent != nil {
		return agent.Close()
	}
	return fmt.Errorf("confbench: no host %q deployed", name)
}

// Backend returns the platform backend for kind.
func (c *Cluster) Backend(kind tee.Kind) (tee.Backend, error) {
	b, ok := c.backends[kind]
	if !ok {
		return nil, fmt.Errorf("confbench: no %q backend deployed", kind)
	}
	return b, nil
}

// Agent returns the first host agent for kind.
func (c *Cluster) Agent(kind tee.Kind) (*hostagent.Agent, error) {
	as, ok := c.agents[kind]
	if !ok || len(as) == 0 {
		return nil, fmt.Errorf("confbench: no %q host deployed", kind)
	}
	return as[0], nil
}

// Agents returns every host agent for kind (HostsPerTEE of them).
func (c *Cluster) Agents(kind tee.Kind) []*hostagent.Agent {
	return append([]*hostagent.Agent(nil), c.agents[kind]...)
}

// FaultPlane returns the configured fault-injection plane (nil when
// the deployment is fault-free).
func (c *Cluster) FaultPlane() *faultplane.Plane { return c.cfg.Faults }

// SnapshotCache returns the cluster-shared snapshot image cache (nil
// when warm pools are disabled).
func (c *Cluster) SnapshotCache() *vm.SnapshotCache { return c.cache }

// Pair returns the secure/normal VM pair on the kind host, for
// in-process measurement runs that bypass the network path. Every pair
// it returns carries the cluster's corpus, so a body executes once per
// cluster whichever platforms and rows price it.
func (c *Cluster) Pair(kind tee.Kind) (vm.Pair, error) {
	a, err := c.Agent(kind)
	if err != nil {
		return vm.Pair{}, err
	}
	p := a.Pair()
	p.Corpus = c.corpus
	return p, nil
}

// Kinds lists the deployed TEE kinds in stable order.
func (c *Cluster) Kinds() []tee.Kind {
	out := make([]tee.Kind, 0, len(c.backends))
	for k := range c.backends {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Catalog returns the workload catalog shared by every VM.
func (c *Cluster) Catalog() *workloads.Registry { return c.catalog }

// UploadCatalog registers one function per (workload, language) pair
// under the name "<workload>-<language>", mirroring the paper's
// cross-language function porting. The ctx bounds the whole batch.
func (c *Cluster) UploadCatalog(ctx context.Context, languages []string) error {
	if languages == nil {
		languages = langs.Names()
	}
	for _, w := range c.catalog.Names() {
		for _, lang := range languages {
			fn := faas.Function{
				Name:     w + "-" + lang,
				Language: lang,
				Workload: w,
				Source:   []byte(fmt.Sprintf("// %s implemented in %s", w, lang)),
			}
			if err := c.client.Upload(ctx, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// TDXAttestation returns the attester and verifier implementing the
// paper's go-tdx-guest-style DCAP flow for the TDX confidential VM.
func (c *Cluster) TDXAttestation() (attest.Attester, attest.Verifier, error) {
	if c.qe == nil || c.pcs == nil {
		return nil, nil, errors.New("confbench: TDX attestation stack not deployed")
	}
	pair, err := c.Pair(tee.KindTDX)
	if err != nil {
		return nil, nil, err
	}
	return dcap.NewAttester(pair.Secure.Guest(), c.qe), dcap.NewVerifier(c.pcs), nil
}

// SEVAttestation returns the attester and verifier implementing the
// paper's snpguest-style flow for the SEV-SNP confidential VM.
func (c *Cluster) SEVAttestation() (attest.Attester, attest.Verifier, error) {
	b, err := c.Backend(tee.KindSEV)
	if err != nil {
		return nil, nil, err
	}
	sevBackend, ok := b.(*sev.Backend)
	if !ok {
		return nil, nil, errors.New("confbench: SEV backend has unexpected type")
	}
	pair, err := c.Pair(tee.KindSEV)
	if err != nil {
		return nil, nil, err
	}
	return snp.NewAttester(pair.Secure.Guest()),
		snp.NewVerifier(sevBackend.SecureProcessor().CertChainCopy()), nil
}

// PCS exposes the simulated Intel provisioning service (for tests and
// the attestation example).
func (c *Cluster) PCS() *dcap.PCS { return c.pcs }

// Close tears the whole deployment down. Every component is closed
// even when an earlier one fails; the individual errors are aggregated
// with errors.Join so none is masked.
func (c *Cluster) Close() error {
	var errs []error
	if c.front != nil { // a boot that failed early has no door yet
		errs = append(errs, c.front.Close())
	}
	for _, gw := range c.gws {
		// Idempotent: the single gateway was the front door just
		// closed, and CloseShard may have hit a shard first.
		errs = append(errs, gw.Close())
	}
	for _, kind := range c.Kinds() {
		for _, a := range c.agents[kind] {
			errs = append(errs, a.Close())
		}
	}
	if c.pcs != nil {
		errs = append(errs, c.pcs.Close())
	}
	if c.clientTransport != nil {
		errs = append(errs, c.clientTransport.Close())
	}
	return errors.Join(errs...)
}
