package confbench_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"confbench"
	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/drill"
	"confbench/internal/obs"
	"confbench/internal/slo"
)

// This file is the table behind `make scenarios`: every scenarios/*.spec
// is driven by the one runner (internal/drill) over the carriers its row
// names. The runner makes the fixed checks — no unmarked client-visible
// failure, a byte-identical report from a second same-seed run, no
// goroutine outliving Close — the row names the verdict it wants, and
// its closure holds what only that scenario asserts, against the
// finished run and its still-open cluster. A row named "<spec>+shards"
// runs the two-shard twin of a single-gateway spec (see shardedTwin), so
// a differential's two halves are one script.

var (
	bothCarriers = []string{"httpjson", "binary"}
	httpOnly     = []string{"httpjson"}
)

var scenarioRows = []struct {
	spec     string
	seed     int64
	carriers []string
	violated bool
	check    func(*testing.T, *drill.Run)
}{
	{"chaos-host-fault", 42, bothCarriers, false, checkChaosHostFault},
	{"chaos-warm-restore", 42, bothCarriers, false, checkWarmRestoreFallback},
	{"obs-counters", 1, httpOnly, false, checkObsCounters},
	{"telemetry-federation", 42, bothCarriers, false, checkTelemetryFederation},
	{"durability-telemetry", 7, httpOnly, false, checkDurabilityTelemetry},
	{"migration-drain", 42, httpOnly, false, checkMigrationDrain},
	{"attest-storm-during-drain", 42, bothCarriers, false, nil},
	{"fronttier-kill-shard", 42, bothCarriers, false, checkFrontTierKillShard},
	{"slo-alert-cycle", 7, httpOnly, true, checkSLOAlertCycle},
	{"slo-restart", 7, httpOnly, true, func(t *testing.T, r *drill.Run) { checkSLORestart(t, r, true) }},
	{"slo-restart+shards", 7, httpOnly, true, func(t *testing.T, r *drill.Run) { checkSLORestart(t, r, false) }},
	{"ops-plane", 7, httpOnly, true, func(t *testing.T, r *drill.Run) { checkOpsPlane(t, r, "tdx-host") }},
	{"ops-plane+shards", 7, httpOnly, true, func(t *testing.T, r *drill.Run) { checkOpsPlane(t, r, "shard-1") }},
	// The bench's own gate cases (cmd/confbench-bench drives them through
	// -scenario); here they only get the fixed checks.
	{"slo-met", 7, httpOnly, false, nil},
	{"slo-violated", 7, httpOnly, true, nil},
	{"sharded-async-chaos-slo", 7, httpOnly, false, nil},
}

func TestScenarios(t *testing.T) {
	ctx := context.Background()
	listed := map[string]bool{}
	for _, row := range scenarioRows {
		file, sharded := strings.CutSuffix(row.spec, "+shards")
		listed[file] = true
		src, err := os.ReadFile(filepath.Join("scenarios", file+".spec"))
		if err != nil {
			t.Fatal(err)
		}
		if sharded {
			src = shardedTwin(t, src)
		}
		sc, err := drill.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", row.spec, err)
		}
		for _, carrier := range row.carriers {
			t.Run(row.spec+"/"+carrier, func(t *testing.T) {
				r, err := drill.Drive(ctx, sc, drill.Config{Seed: row.seed, Transport: carrier})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close() // a closure may t.Fatal before Finish
				if row.check != nil {
					row.check(t, r)
				}
				if err := r.Finish(ctx); err != nil {
					t.Errorf("%v\nreport:\n%s", err, r.Report)
				}
				if r.Violated != row.violated {
					t.Errorf("verdict violated=%v, want %v\nreport:\n%s", r.Violated, row.violated, r.Report)
				}
			})
		}
	}
	specs, _ := filepath.Glob("scenarios/*.spec")
	for _, path := range specs {
		if name := strings.TrimSuffix(filepath.Base(path), ".spec"); !listed[name] {
			t.Errorf("%s has no row in scenarioRows", path)
		}
	}
}

// shardedTwin puts the spec's deployment behind two gateway shards and a
// front tier: the differentials hold that the federating door reads the
// same there. The lone gateway's dead sweep target is a host; the tier's
// is a shard.
func shardedTwin(t *testing.T, src []byte) []byte {
	twin := strings.NewReplacer("\nboot:", "\nboot:shards=2:", "\nkill:tdx-host", "\nkill:shard-1").Replace(string(src))
	if !strings.Contains(twin, "\nboot:shards=2:") {
		t.Fatalf("no boot line to shard in:\n%s", src)
	}
	return []byte(twin)
}

// counter and gauge read one series of the deployment registry.
func counter(r *drill.Run, family string, labels ...string) uint64 {
	return r.Cluster.Obs().Snapshot().Counters[obs.MetricID(family, labels...)]
}

func gauge(r *drill.Run, family string, labels ...string) int64 {
	return r.Cluster.Obs().Snapshot().Gauges[obs.MetricID(family, labels...)]
}

// checkChaosHostFault: with one of two SEV hosts hard-erroring, the
// faulted host's breakers read open, its sibling's closed, and every
// injected fault was one gateway retry onto the healthy host.
func checkChaosHostFault(t *testing.T, r *drill.Run) {
	history := r.Faults.History()
	if len(history) == 0 {
		t.Fatal("no faults injected — the chaos spec did not match anything")
	}
	for _, inj := range history {
		if inj.Host != "sev-snp-host" {
			t.Errorf("fault injected on %q, spec pinned host=sev-snp-host", inj.Host)
		}
	}
	// The faulted host's two endpoints (the mix alternates secure and
	// normal) read open; the sibling host stays closed.
	const open, closed = 1, 0
	for vm, want := range map[string]int64{
		"sev-snp-host-secure": open, "sev-snp-host-normal": open,
		"sev-snp-host-2-secure": closed, "sev-snp-host-2-normal": closed,
	} {
		host := strings.TrimSuffix(strings.TrimSuffix(vm, "-secure"), "-normal")
		if got := gauge(r, "confbench_breaker_state", "tee", "sev-snp", "host", host, "vm", vm); got != want {
			t.Errorf("breaker gauge for %s = %d, want %d", vm, got, want)
		}
	}
	// Each faulted endpoint absorbed threshold (3) failures before its
	// breaker opened; every one was retried onto the healthy sibling.
	if got := counter(r, "confbench_invoke_retries_total"); got != uint64(len(history)) {
		t.Errorf("gateway retries = %d, want %d (one per injected fault)", got, len(history))
	}
	if got := counter(r, "confbench_faults_injected_total", "point", "hostagent.exec", "kind", "error"); got != uint64(len(history)) {
		t.Errorf("faults-injected counter = %d, want %d", got, len(history))
	}
}

// checkWarmRestoreFallback: every restore errored, so the chaos shows
// only in the fault history and the fallback counter — never as a
// completed restore, never to a client.
func checkWarmRestoreFallback(t *testing.T, r *drill.Run) {
	history := r.Faults.History()
	if len(history) == 0 {
		t.Fatal("no faults injected — the restore chaos spec did not match anything")
	}
	for _, inj := range history {
		if inj.Point != "snapshot.restore" {
			t.Errorf("fault injected at %q, spec pinned snapshot.restore", inj.Point)
		}
	}
	if counter(r, "confbench_warm_fallbacks_total", "tee", "sev-snp") == 0 {
		t.Error("no warm fallbacks recorded despite every restore erroring")
	}
	if counter(r, "confbench_warm_hits_total", "tee", "sev-snp") == 0 {
		t.Error("no warm hits — the agent never acquired from its pool")
	}
	if got := counter(r, "confbench_tee_guest_restores_total", "tee", "sev-snp"); got != 0 {
		t.Errorf("restores completed = %d, want 0 under a 1.0 error spec", got)
	}
}

// checkObsCounters: the whole plane — HTTP routes, pool checkouts, TEE
// structural counters — reports non-zero, mutually consistent values,
// and the same numbers on the Prometheus surface.
func checkObsCounters(t *testing.T, r *drill.Run) {
	const invokes = 10
	snap, err := r.Cluster.Client().Obs(context.Background()) // GET /v1/obs?format=json
	if err != nil {
		t.Fatal(err)
	}
	counter := func(family string, labels ...string) uint64 { return snap.Counters[obs.MetricID(family, labels...)] }
	if got := counter("confbench_http_requests_total", "route", "/v1/invoke", "status", "200"); got != invokes {
		t.Errorf("invoke route counter = %d, want %d", got, invokes)
	}
	if got := counter("confbench_pool_checkouts_total", "tee", "tdx") +
		counter("confbench_pool_checkouts_total", "tee", "sev-snp"); got != invokes {
		t.Errorf("total pool checkouts = %d, want %d", got, invokes)
	}
	for _, kind := range []string{"tdx", "sev-snp"} {
		if got := counter("confbench_tee_guest_launches_total", "tee", kind); got != 1 {
			t.Errorf("%s secure guest launches = %d, want 1", kind, got)
		}
		for _, family := range []string{"confbench_tee_transitions_total", "confbench_tee_bounce_buffer_bytes_total"} {
			if counter(family, "tee", kind) == 0 {
				t.Errorf("%s{tee=%s} = 0, want > 0 after secure I/O", family, kind)
			}
		}
	}
	if got := counter("confbench_tee_guest_launches_total", "tee", "none"); got != 2 {
		t.Errorf("normal guest launches = %d, want 2 (one per host)", got)
	}
	for _, id := range [][]string{
		{"confbench_tee_module_calls_total", "tee", "tdx"},
		{"confbench_tee_rmp_ops_total", "tee", "sev-snp"},
		{"confbench_hostagent_requests_total", "vm", "tdx-host-secure"},
	} {
		if counter(id[0], id[1:]...) == 0 {
			t.Errorf("%v = 0, want > 0 after guest builds and secure invokes", id)
		}
	}
	var b strings.Builder
	r.Cluster.Obs().WritePrometheus(&b)
	for _, want := range []string{
		`confbench_http_requests_total{route="/v1/invoke",status="200"} 10`,
		`# TYPE confbench_pool_checkouts_total counter`,
		`confbench_tee_guest_launches_total{tee="tdx"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// checkTelemetryFederation: the windowed invoke rate is exactly 3/s,
// the sweeps covered the gateway plus both SEV hosts with each agent's
// relay counters under its own host label, and the flight recorder kept
// one event per invoke.
func checkTelemetryFederation(t *testing.T, r *drill.Run) {
	// (12-3) invokes over 3 synthetic seconds.
	if r.Final.Samples != 4 || r.Final.Rate != 3 {
		t.Errorf("windowed rate = %v over %d samples, want exactly 3 over 4", r.Final.Rate, r.Final.Samples)
	}
	if cs := r.Sweeps[len(r.Sweeps)-1]; len(cs.ScrapeErrors) != 0 {
		t.Fatalf("scrape errors against live hosts: %v", cs.ScrapeErrors)
	}
	// One more sweep, asked for the way an operator would: GET
	// /v1/obs/cluster. It lands on the wall clock, after the report.
	cs, err := r.Cluster.Client().ObsCluster(context.Background(), 10)
	if err != nil || len(cs.ScrapeErrors) != 0 {
		t.Fatalf("/v1/obs/cluster: %v, scrape errors %v", err, cs.ScrapeErrors)
	}
	labeled := map[string]bool{}
	for id := range cs.Merged.Counters {
		family, labels := obs.ParseMetricID(id)
		if family == "confbench_relay_accepted_total" && labels["host"] != "gateway" {
			labeled[labels["host"]] = true
		}
	}
	if len(cs.Hosts) != 3 || len(labeled) != 2 {
		t.Errorf("swept %v with relay counters under %v, want the gateway and both agents", cs.Hosts, labeled)
	}
	wantInvokeEvents(t, r.Final.Events, 12)
}

// wantInvokeEvents: n flight-recorder events, each with the
// histogram-exemplar trace ID of an invoke.
func wantInvokeEvents(t *testing.T, evs []obs.Event, n int) {
	t.Helper()
	if len(evs) != n {
		t.Fatalf("flight recorder holds %d events, want %d", len(evs), n)
	}
	for _, ev := range evs {
		if !strings.HasPrefix(ev.Trace, "inv-") {
			t.Fatalf("event trace %q, want inv- prefix", ev.Trace)
		}
	}
}

// checkDurabilityTelemetry: the restart replayed the first life's eight
// events and two rate samples before any new sweep, the windowed rate
// spans the restart, and the spill lives under the gateway's own
// subdirectory.
func checkDurabilityTelemetry(t *testing.T, r *drill.Run) {
	life := r.Restarts[0]
	wantInvokeEvents(t, life.Before.Events, 8)
	wantInvokeEvents(t, life.After.Events, 8)
	if life.After.Samples != 2 || life.After.Samples != life.Before.Samples {
		t.Errorf("replayed %d rate samples of %d, want 2 of 2", life.After.Samples, life.Before.Samples)
	}
	wantInvokeEvents(t, r.Final.Events, 12)
	// The gateway's invocation counter reset to zero on restart — the
	// per-step rate must skip that reset, not zero the window.
	if r.Final.Samples != 3 || r.Final.Rate <= 0 {
		t.Errorf("restart-spanning invoke rate = %g over %d samples, want positive over 3", r.Final.Rate, r.Final.Samples)
	}
	// The same over /v1/obs/cluster?window=: its wall-clock sweep joins
	// the replayed and the synthetic samples in one window.
	cs, err := r.Cluster.Client().ObsCluster(context.Background(), 16)
	if err != nil || cs.Rates[obs.RateInvokesPerSec] <= 0 {
		t.Errorf("/v1/obs/cluster?window=16: %v, rates %v; want a positive restart-spanning invoke rate", err, cs.Rates)
	}
	if segs, _ := filepath.Glob(filepath.Join(r.DurableDir, "gateway", "seg-*.wal")); len(segs) == 0 {
		t.Error("no spill segments under <durable-dir>/gateway")
	}
}

// checkMigrationDrain: the drain quiesced and removed the host and
// live-migrated the serving guest plus the idle warm one.
func checkMigrationDrain(t *testing.T, r *drill.Run) {
	report := r.Drains[0]
	if report.Quiesced == 0 || report.Removed == 0 {
		t.Errorf("drain removed nothing: quiesced %d removed %d", report.Quiesced, report.Removed)
	}
	if len(report.Migrations) != 2 {
		t.Fatalf("migrated %d guests, want serving + 1 idle", len(report.Migrations))
	}
	for _, m := range report.Migrations {
		if m.Outcome != "migrated" || m.DowntimeNs <= 0 {
			t.Errorf("guest %s: outcome %q downtime %dns, want migrated with a blackout", m.Guest, m.Outcome, m.DowntimeNs)
		}
	}
	if got := counter(r, "confbench_migrations_total", "kind", "sev-snp", "outcome", "migrated"); got != 2 {
		t.Errorf("confbench_migrations_total{sev-snp,migrated} = %d, want 2", got)
	}
	if counter(r, "confbench_migration_bytes_total", "kind", "sev-snp") == 0 {
		t.Error("no migration stream bytes counted")
	}
}

// wantAlertCycle: warn → firing → resolved → ok, landing on the
// synthetic sweep instants 2–5.
func wantAlertCycle(t *testing.T, timeline []slo.Transition) {
	t.Helper()
	want := []slo.State{slo.StateWarn, slo.StateFiring, slo.StateResolved, slo.StateOK}
	if len(timeline) != len(want) {
		t.Fatalf("timeline has %d transitions, want %d: %+v", len(timeline), len(want), timeline)
	}
	for i, tr := range timeline {
		at := drill.Epoch.Add(time.Duration(i+2) * time.Second).UnixNano()
		if tr.Objective != "invoke-availability" || tr.To != want[i] || tr.AtUnixNs != at {
			t.Errorf("transition %d = %+v, want invoke-availability -> %s at sweep %d", i, tr, want[i], i+2)
		}
	}
}

// checkSLOAlertCycle: the availability objective walked the full cycle
// and is ok again; the drain fed the downtime objective, which stayed ok
// with an untouched budget.
func checkSLOAlertCycle(t *testing.T, r *drill.Run) {
	wantAlertCycle(t, r.Final.Timeline)
	if len(r.Drains[0].Migrations) == 0 {
		t.Fatal("drain migrated nothing; the downtime objective saw no samples")
	}
	byName := map[string]slo.Status{}
	for _, s := range r.Final.Status {
		byName[s.Objective] = s
	}
	if s := byName["invoke-availability"]; s.State != slo.StateOK {
		t.Errorf("availability objective = %+v, want ok after the recovery sweeps", s)
	}
	if s := byName["migration-downtime"]; s.State != slo.StateOK || s.BudgetRemaining != 1 {
		t.Errorf("downtime objective = %+v, want ok with a full budget", s)
	}
}

// sameTimeline: the replayed timeline is byte-identical to the
// pre-shutdown one, as /v1/obs/alerts serves it.
func sameTimeline(t *testing.T, life drill.Restart) {
	t.Helper()
	pre, _ := json.Marshal(life.Before.Timeline)
	post, _ := json.Marshal(life.After.Timeline)
	if !bytes.Equal(pre, post) {
		t.Errorf("alert timeline did not survive the restart:\npre:  %s\npost: %s", pre, post)
	}
}

// checkSLORestart: driven to firing, restarted — the timeline replays
// verbatim with firing restored as the live state before any new sweep,
// and clean sweeps on the rebooted door (counters back at zero) resolve
// it.
func checkSLORestart(t *testing.T, r *drill.Run, gateway bool) {
	life := r.Restarts[0]
	pre := life.Before.Timeline
	if len(pre) != 2 || pre[1].To != slo.StateFiring {
		t.Fatalf("pre-restart timeline = %+v, want ok->warn->firing", pre)
	}
	for _, tr := range pre {
		// A gateway's recorder holds the failed invokes to point at; a
		// tier's holds only the transitions.
		if gateway && !strings.HasPrefix(tr.Trace, "inv-") {
			t.Errorf("transition %s->%s trace = %q, want a failed-invoke exemplar", tr.From, tr.To, tr.Trace)
		}
	}
	sameTimeline(t, life)
	if st := life.After.Status; len(st) != 1 || st[0].State != slo.StateFiring {
		t.Fatalf("restored status = %+v, want invoke-availability firing", st)
	}
	wantAlertCycle(t, r.Final.Timeline)
}

// planeReading is everything the two federating doors must agree on.
type planeReading struct {
	Metrics      [3]uint64 // /v1/metrics invocations, errors, attestations after the first life
	Rate         float64   // invokes/s over the first life's three sweeps
	ReplayedRate int       // samples of that series the restart restored
	ReplayedSLO  int       // alert transitions among the events it restored
	DeadErrors   int       // entries in the last sweep's ScrapeErrors
	DeadShaped   bool      // the dead target's entry reads "scrape <name>: …"
	DeadListed   bool      // the dead target still among Hosts
	DeadFailures uint64    // confbench_obs_scrape_failures_total{host=<name>}
}

// checkOpsPlane: the ops-plane differential — the same script behind a
// single gateway and behind two shards reads the same through the
// federating door.
func checkOpsPlane(t *testing.T, r *drill.Run, dead string) {
	want := planeReading{
		Metrics:      [3]uint64{78, 12, 5},
		Rate:         24, // 30, 58, 78 invocations at one-second sweeps
		ReplayedRate: 3,
		ReplayedSLO:  2,
		DeadErrors:   1, DeadShaped: true, DeadListed: false, DeadFailures: 1,
	}
	life, last := r.Restarts[0], r.Sweeps[len(r.Sweeps)-1]
	m := life.Before.Metrics
	got := planeReading{
		Metrics:      [3]uint64{m.Invocations, m.Errors, m.Attestations},
		Rate:         life.Before.Rate,
		ReplayedRate: life.After.Samples,
		DeadErrors:   len(last.ScrapeErrors),
		DeadShaped:   strings.HasPrefix(last.ScrapeErrors[dead], "scrape "+dead+": "),
		DeadFailures: r.Cluster.Plane().Obs().Snapshot().Counters[obs.MetricID("confbench_obs_scrape_failures_total", "host", dead)],
	}
	for _, ev := range life.After.Events {
		if strings.HasPrefix(ev.Function, slo.EventPrefix) {
			got.ReplayedSLO++
		}
	}
	for _, h := range last.Hosts {
		got.DeadListed = got.DeadListed || h == dead
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plane read\n got %+v\nwant %+v", got, want)
	}
	sameTimeline(t, life)
	wantAlertCycle(t, r.Final.Timeline)
}

// checkFrontTierKillShard: the killed shard had served, its breaker
// reads open and its keys failed over; the over-quota tenant is shed
// with 503 + Retry-After on the wire, a retrying client outwaits it,
// and all of it shows in the shard-federated snapshot.
func checkFrontTierKillShard(t *testing.T, r *drill.Run) {
	ctx := context.Background()
	if counter(r, "confbench_fronttier_invokes_total", "shard", "shard-1") == 0 {
		t.Error("shard-1 served nothing before being killed — the script never exercised it")
	}
	if counter(r, "confbench_fronttier_failovers_total") == 0 {
		t.Error("no failovers recorded despite a shard dying mid-run")
	}
	if got := gauge(r, "confbench_fronttier_shard_breaker_state", "shard", "shard-1"); got != 1 {
		t.Errorf("dead shard's breaker gauge = %d, want 1 (open)", got)
	}

	// The script's last step just spent and overdrew the greedy tenant's
	// bucket (2 tokens/s, burst 1), so for the next 500ms a request is
	// shed: HTTP 503 with a Retry-After header on the wire, a retryable
	// unavailable with refill-derived advice to a one-attempt client.
	url := r.Cluster.GatewayURL()
	req := confbench.InvokeRequest{Function: "fn-0", TEE: confbench.KindSEV, Scale: 1}
	body, _ := json.Marshal(req)
	var httpResp *http.Response
	for try := 0; try < 3; try++ { // a slow machine may have let a token refill: an admitted try spends it again
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+api.PathV1Invoke, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		httpReq.Header.Set(confbench.HeaderTenant, "greedy")
		if httpResp, err = http.DefaultClient.Do(httpReq); err != nil {
			t.Fatal(err)
		}
		httpResp.Body.Close()
		if httpResp.StatusCode != http.StatusOK {
			break
		}
	}
	if httpResp.StatusCode != http.StatusServiceUnavailable || httpResp.Header.Get("Retry-After") == "" {
		t.Errorf("over-quota answer = %d, Retry-After %q; want 503 with advice",
			httpResp.StatusCode, httpResp.Header.Get("Retry-After"))
	}
	oneShot, err := confbench.NewClient(url, confbench.WithClientTenant("greedy"), api.WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	_, shedErr := oneShot.Invoke(ctx, req)
	if cberr.CodeOf(shedErr) != cberr.CodeUnavailable || !cberr.Retryable(shedErr) {
		t.Errorf("shed is not a retryable unavailable: %v", shedErr)
	}
	if ra := cberr.RetryAfterOf(shedErr); ra <= 0 || ra > 500*time.Millisecond {
		t.Errorf("shed RetryAfter = %v, want (0, 500ms]", ra)
	}
	// A retrying client honors the advice: it is shed at least once more,
	// waits out the refill instead of surfacing the shed, and succeeds.
	sheds := func() uint64 { return counter(r, "confbench_fronttier_sheds_total", "reason", "tenant_rate") }
	before := sheds()
	honoring, err := confbench.NewClient(url, confbench.WithClientTenant("greedy"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := honoring.Invoke(ctx, req); err != nil {
		t.Fatalf("retrying client must outwait the quota: %v", err)
	}
	if sheds() == before {
		t.Error("retrying client was never shed — it cannot have waited for a refill")
	}

	// The last federated snapshot of the run: the survivor's counters
	// under its shard label, the dead shard as a scrape error, and the
	// tier's shed counters under shard="front".
	cs, err := r.Cluster.Client().ObsCluster(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Merged.Counters[obs.MetricID("confbench_http_requests_total",
		"route", api.PathV1Invoke, "status", "200", "shard", "shard-0")] == 0 {
		t.Error("federated snapshot misses the surviving shard's served invokes")
	}
	if _, dead := cs.ScrapeErrors["shard-1"]; !dead {
		t.Errorf("dead shard missing from scrape errors: %v", cs.ScrapeErrors)
	}
	if cs.Merged.Counters[obs.MetricID("confbench_fronttier_sheds_total",
		"reason", "tenant_rate", "shard", "front")] == 0 {
		t.Error("tenant_rate sheds missing from the federated snapshot under shard=\"front\"")
	}
}
