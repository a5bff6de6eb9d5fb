package gateway

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/door"
	"confbench/internal/hostagent"
	"confbench/internal/obs"
	"confbench/internal/tee"
)

// twoHostGateway builds a started gateway over two synthetic TDX
// hosts. The endpoints point nowhere routable — fine for drain tests,
// which never dial them.
func twoHostGateway(t *testing.T) (*Gateway, string, *api.Client) {
	t.Helper()
	g := New(Config{PlaneConfig: door.PlaneConfig{Obs: obs.New()}})
	for _, host := range []string{"host-a", "host-b"} {
		g.AddHost(host, []hostagent.Endpoint{
			{Addr: "127.0.0.1:1", Secure: true, TEE: tee.KindTDX, VMName: host + "-s"},
			{Addr: "127.0.0.1:1", Secure: false, TEE: tee.KindTDX, VMName: host + "-n"},
		})
	}
	url, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	return g, url, mustClient(t, url)
}

// TestDrainRoutingOnly exercises the gateway's built-in drain over
// POST /v1/drain: the host's endpoints leave routing and the
// federation sweep, and the report says so.
func TestDrainRoutingOnly(t *testing.T) {
	g, _, client := twoHostGateway(t)
	report, err := client.DrainHost(context.Background(), "host-a")
	if err != nil {
		t.Fatal(err)
	}
	if !report.RoutingOnly || report.Host != "host-a" {
		t.Errorf("report = %+v, want routing-only drain of host-a", report)
	}
	if report.Quiesced != 2 || report.Removed != 2 {
		t.Errorf("quiesced %d removed %d, want 2/2", report.Quiesced, report.Removed)
	}
	if len(report.Migrations) != 0 {
		t.Errorf("routing-only drain reported migrations: %+v", report.Migrations)
	}
	for _, host := range g.Targets() {
		if host == "host-a" {
			t.Error("drained host still a scrape target")
		}
	}
	for _, m := range g.pools[tee.KindTDX].Members() {
		if m.Host == "host-a" {
			t.Errorf("drained endpoint still in the pool: %+v", m)
		}
	}
}

// TestDrainValidation covers the rejection paths: unknown host, empty
// host, wrong method.
func TestDrainValidation(t *testing.T) {
	_, url, client := twoHostGateway(t)
	if _, err := client.DrainHost(context.Background(), "no-such-host"); err == nil {
		t.Error("unknown host drained")
	} else if cberr.CodeOf(err) != cberr.CodeNotFound {
		t.Errorf("unknown host: code %q, want not_found", cberr.CodeOf(err))
	}
	if _, err := client.DrainHost(context.Background(), ""); err == nil {
		t.Error("empty host drained")
	}
	resp, err := http.Get(url + api.PathV1Drain)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET %s = %d, want 405", api.PathV1Drain, resp.StatusCode)
	}
}

// TestDrainWaitsForInFlight pins the quiesce contract: a drain blocks
// while a checkout holds the host, aborting restores routing, and a
// released checkout lets the drain complete.
func TestDrainWaitsForInFlight(t *testing.T) {
	g, _, _ := twoHostGateway(t)
	pool := g.pools[tee.KindTDX]

	// Park a checkout on host-a (quiesce host-b first so the acquire
	// cannot land elsewhere), then restore host-b.
	pool.Quiesce("host-b")
	co, err := pool.Acquire(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unquiesce("host-b")
	if co.Entry.Host != "host-a" {
		t.Fatalf("checkout landed on %s, want host-a", co.Entry.Host)
	}
	if got := g.HostInFlight("host-a"); got != 1 {
		t.Fatalf("HostInFlight = %d, want 1", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := g.drainRoutingOnly(ctx, "host-a"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with held checkout: %v, want deadline exceeded", err)
	} else if cberr.CodeOf(err) != cberr.CodeUnavailable {
		t.Errorf("aborted drain: code %q, want unavailable", cberr.CodeOf(err))
	}
	// The abort must have returned host-a to routing.
	for _, m := range pool.Members() {
		if m.Host == "host-a" && m.Draining {
			t.Errorf("aborted drain left endpoint draining: %+v", m)
		}
	}

	co.Release()
	report, err := g.drainRoutingOnly(context.Background(), "host-a")
	if err != nil {
		t.Fatal(err)
	}
	if report.Removed != 2 {
		t.Errorf("removed %d endpoints, want 2", report.Removed)
	}
}

// TestQuiesceRoutesAround verifies a quiesced host is invisible to
// acquisition until unquiesced.
func TestQuiesceRoutesAround(t *testing.T) {
	g, _, _ := twoHostGateway(t)
	pool := g.pools[tee.KindTDX]
	if n := g.QuiesceHost("host-a"); n != 2 {
		t.Fatalf("quiesced %d endpoints, want 2", n)
	}
	for i := 0; i < 4; i++ {
		co, err := pool.Acquire(context.Background(), i%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		if co.Entry.Host == "host-a" {
			t.Fatal("acquire landed on a quiesced host")
		}
		co.Release()
	}
	if n := g.UnquiesceHost("host-a"); n != 2 {
		t.Fatalf("unquiesced %d endpoints, want 2", n)
	}
	landed := false
	for i := 0; i < 8 && !landed; i++ {
		co, err := pool.Acquire(context.Background(), true)
		if err != nil {
			t.Fatal(err)
		}
		landed = co.Entry.Host == "host-a"
		co.Release()
	}
	if !landed {
		t.Error("unquiesced host never acquired again")
	}
}

// TestSetDrainer verifies POST /v1/drain delegates to an installed
// drainer and surfaces its typed errors.
func TestSetDrainer(t *testing.T) {
	g, _, client := twoHostGateway(t)
	var got string
	g.SetDrainer(func(_ context.Context, host string) (*api.DrainReport, error) {
		got = host
		if host == "bad-host" {
			return nil, cberr.New(cberr.CodeConflict, cberr.LayerGateway, "nope")
		}
		return &api.DrainReport{Host: host, TEE: "tdx", Quiesced: 2, Removed: 2,
			Migrations: []api.MigrationSummary{{Guest: "g1", Outcome: "migrated"}}}, nil
	})
	report, err := client.DrainHost(context.Background(), "host-a")
	if err != nil {
		t.Fatal(err)
	}
	if got != "host-a" || len(report.Migrations) != 1 || report.Migrations[0].Guest != "g1" {
		t.Errorf("drainer not consulted: got %q, report %+v", got, report)
	}
	if _, err := client.DrainHost(context.Background(), "bad-host"); err == nil {
		t.Error("drainer error swallowed")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("drainer error rewritten: %v", err)
	}
}
