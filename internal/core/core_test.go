package core

import (
	"context"
	"strings"
	"testing"

	"confbench/internal/api"
	"confbench/internal/faas"
	"confbench/internal/obs"
	"confbench/internal/tee"
	"confbench/internal/vm"
)

func TestDefaultsFillAllThreeTEEs(t *testing.T) {
	cfg := ClusterConfig{}.withDefaults()
	if len(cfg.TEEs) != 3 || cfg.Seed == 0 || cfg.GuestMemoryMB == 0 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestUnsupportedTEERejectedAtBoot(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{TEEs: []tee.Kind{tee.Kind("sgx")}}); err == nil {
		t.Error("unsupported TEE accepted")
	}
}

func TestClusterCloseIsIdempotent(t *testing.T) {
	c, err := NewCluster(ClusterConfig{TEEs: []tee.Kind{tee.KindSEV}, GuestMemoryMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestGatewayURLAndPools(t *testing.T) {
	c, err := NewCluster(ClusterConfig{TEEs: []tee.Kind{tee.KindTDX}, GuestMemoryMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.GatewayURL() == "" {
		t.Error("no gateway URL")
	}
	pools, err := c.Client().Pools(context.Background())
	if err != nil || len(pools) != 1 || pools[0].TEE != tee.KindTDX {
		t.Errorf("pools = %+v, %v", pools, err)
	}
}

func TestLeastLoadedConfig(t *testing.T) {
	c, err := NewCluster(ClusterConfig{TEEs: []tee.Kind{tee.KindTDX}, LeastLoaded: true, GuestMemoryMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pools, err := c.Client().Pools(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pools[0].Policy != "least-loaded" {
		t.Errorf("policy = %s", pools[0].Policy)
	}
}

func TestUploadCatalogAndDuplicates(t *testing.T) {
	c, err := NewCluster(ClusterConfig{TEEs: []tee.Kind{tee.KindSEV}, GuestMemoryMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.UploadCatalog(context.Background(), []string{"go"}); err != nil {
		t.Fatal(err)
	}
	// A second pass collides with the already-registered names.
	if err := c.UploadCatalog(context.Background(), []string{"go"}); err == nil {
		t.Error("duplicate catalog upload accepted")
	}
	// Unknown language surfaces the gateway's rejection.
	if err := c.UploadCatalog(context.Background(), []string{"cobol"}); err == nil {
		t.Error("unknown language accepted")
	}
}

// TestShardedClusterServesThroughFrontTier: Shards > 1 boots shard
// gateways behind a front tier, the client points at the tier, an
// invoke flows end to end, and CloseShard kills exactly the named
// shard.
func TestShardedClusterServesThroughFrontTier(t *testing.T) {
	c, err := NewCluster(ClusterConfig{TEEs: []tee.Kind{tee.KindSEV}, GuestMemoryMB: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.FrontTier() == nil {
		t.Fatal("sharded cluster has no front tier")
	}
	if got := c.ShardNames(); len(got) != 2 || got[0] != "shard-0" || got[1] != "shard-1" {
		t.Fatalf("shard names = %v", got)
	}
	if c.GatewayURL() != c.FrontTier().BaseURL() {
		t.Errorf("front door URL %q is not the tier's %q", c.GatewayURL(), c.FrontTier().BaseURL())
	}
	if c.Gateway() == nil {
		t.Error("Gateway() must still expose a shard gateway")
	}
	ctx := context.Background()
	fn := faas.Function{Name: "sharded", Language: "go", Workload: "cpustress"}
	if err := c.Client().Upload(ctx, fn); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Client().Invoke(ctx, api.InvokeRequest{Function: "sharded", TEE: tee.KindSEV})
	if err != nil {
		t.Fatal(err)
	}
	if resp.WallNs <= 0 {
		t.Errorf("invoke through the tier returned no wall time: %+v", resp)
	}
	if err := c.CloseShard("shard-9"); err == nil {
		t.Error("closing an unknown shard must fail")
	}
	if err := c.CloseShard("shard-1"); err != nil {
		t.Errorf("close shard-1: %v", err)
	}
}

// TestSingleGatewayClusterHasNoTier: Shards <= 1 keeps the existing
// single-gateway deployment untouched.
func TestSingleGatewayClusterHasNoTier(t *testing.T) {
	c, err := NewCluster(ClusterConfig{TEEs: []tee.Kind{tee.KindSEV}, GuestMemoryMB: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.FrontTier() != nil || len(c.ShardNames()) != 0 {
		t.Error("Shards=1 must not deploy a front tier")
	}
	if c.GatewayURL() == "" {
		t.Error("no gateway URL")
	}
}

func TestPairUnknownKind(t *testing.T) {
	c, err := NewCluster(ClusterConfig{TEEs: []tee.Kind{tee.KindSEV}, GuestMemoryMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Pair(tee.KindTDX); err == nil {
		t.Error("pair for undeployed kind should fail")
	}
	if _, err := c.Agent(tee.KindCCA); err == nil {
		t.Error("agent for undeployed kind should fail")
	}
}

// execSpans counts the VM launches a span tree records.
func execSpans(d *obs.SpanData) int {
	if d == nil {
		return 0
	}
	n := 0
	if d.Layer == "vm" && strings.HasPrefix(d.Name, "exec ") {
		n++
	}
	for _, c := range d.Children {
		n += execSpans(c)
	}
	return n
}

// TestServingPathNeverUsesTheCorpus: the cluster's corpus serves the
// figure harness's pairs only. With the body already in it, every
// invoke through the deployment, and every InvokeFunction on the
// host's VM, launches the function again.
func TestServingPathNeverUsesTheCorpus(t *testing.T) {
	c, err := NewCluster(ClusterConfig{TEEs: []tee.Kind{tee.KindTDX}, GuestMemoryMB: 4, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	fn := faas.Function{Name: "hot", Language: "go", Workload: "fib"}
	if err := c.Client().Upload(ctx, fn); err != nil {
		t.Fatal(err)
	}
	pair, err := c.Pair(tee.KindTDX)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Corpus == nil {
		t.Fatal("the cluster's pair carries no corpus")
	}
	if _, err := pair.Execute(ctx, fn, 5); err != nil {
		t.Fatal(err)
	}

	const n = 4
	launches := 0
	for i := 0; i < n; i++ {
		resp, err := c.Client().Invoke(ctx, api.InvokeRequest{Function: "hot", Secure: true, TEE: tee.KindTDX, Scale: 5, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		launches += execSpans(resp.Trace)
	}
	if launches != n {
		t.Errorf("%d invokes through the deployment launched %d times", n, launches)
	}
	for _, v := range []*vm.VM{pair.Secure, pair.Normal} {
		root, span := obs.NewRoot(ctx, "test", "invokes")
		for i := 0; i < n; i++ {
			if _, err := v.InvokeFunction(root, fn, 5); err != nil {
				t.Fatal(err)
			}
		}
		span.End()
		if got := execSpans(span.Data()); got != n {
			t.Errorf("%d InvokeFunction calls on %s launched %d times", n, v.Name(), got)
		}
	}
	if got := pair.Corpus.Len(); got != 1 {
		t.Errorf("the corpus holds %d executions after serving, want the one Execute stored", got)
	}
}
