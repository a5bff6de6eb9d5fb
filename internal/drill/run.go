package drill

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"confbench"
	"confbench/internal/api"
	"confbench/internal/obs"
	"confbench/internal/slo"
	"confbench/internal/wire"
)

// What Finish reports, joined when several hold.
var (
	ErrUnexpected       = errors.New("client-visible outcomes the script did not mark")
	ErrNondeterministic = errors.New("same-seed reports differ")
	ErrLeak             = errors.New("goroutines outlived Close")
)

// ErrDirInUse is Drive refusing a durable dir that already holds
// something: an old spill would replay into this run and not into the
// same-seed rerun, which always gets a directory of its own.
var ErrDirInUse = errors.New("durable dir is not empty")

// settle is how long Close waits for goroutines it has already told to
// stop before calling the rest a leak.
var settle = 3 * time.Second

// Epoch is sweep 0 of the synthetic clock: a run's n-th sweep lands on
// Epoch + n seconds however fast the wall clock ran.
var Epoch = time.Unix(1_700_000_000, 0)

// reportFamilies are the counters and gauges the report prints: those a
// serial seeded run fixes (no carrier byte counts, no wall-clock
// histograms).
var reportFamilies = []string{
	"confbench_invoke_retries_total", "confbench_pool_checkouts_total", "confbench_breaker_state",
	"confbench_fronttier_invokes_total", "confbench_fronttier_sheds_total",
	"confbench_fronttier_failovers_total", "confbench_fronttier_shard_breaker_state",
	"confbench_fronttier_async_pending", "confbench_migrations_total", "confbench_migration_bytes_total",
	"confbench_warm_fallbacks_total", "confbench_faults_injected_total", "confbench_obs_scrape_failures_total",
}

// Config is what the caller picks per run; the rest is the scenario's.
type Config struct {
	Seed       int64
	Transport  string // carrier of every hop, the client edge included
	DurableDir string // "" = a throwaway one
}

// Reading is what the federating door's ops plane holds at one instant.
type Reading struct {
	Metrics  api.Metrics // uptime zeroed: the report carries no wall clock
	Status   []slo.Status
	Timeline []slo.Transition
	Events   []obs.Event
	Samples  int     // length of the invoke-rate series
	Rate     float64 // invokes per synthetic second over all of it
}

// Restart is one restart step: the plane just before Close, and just
// after the re-boot replayed the spill, before any new sweep.
type Restart struct{ Before, After Reading }

// Run is a driven scenario. Its cluster stays open until Close or
// Finish, for the caller's own assertions.
type Run struct {
	Report     string   // virtual time, counters, fault history, SLO table: no wall-clock field
	Violated   bool     // an objective fired or overspent its budget
	Unexpected []string // unmarked failures, and fail steps that succeeded
	Cluster    *confbench.Cluster
	Faults     *confbench.FaultPlane
	DurableDir string
	Sweeps     []obs.ClusterSnapshot
	Drains     []*confbench.DrainReport
	Restarts   []Restart
	Final      Reading

	sc              *Scenario
	cfg             Config
	baseline        map[string]bool // IDs of the goroutines before boot
	ownDir, closed  bool            // ownDir: DurableDir is a temp dir to remove
	carrier         api.Transport   // the clients' binary carrier, when chosen
	ops, ok, failed int             // ops indexes the seeded mix
	virtual         int64
	out             strings.Builder
}

// Drive runs sc line by line. A step that cannot be carried out (failed
// boot, unknown drain host) is an error; an invoke or attest that fails
// is an outcome, held against the step's fail mark.
func Drive(ctx context.Context, sc *Scenario, cfg Config) (*Run, error) {
	r := &Run{sc: sc, cfg: cfg, baseline: goroutines(),
		Faults: confbench.NewFaultPlane(cfg.Seed), DurableDir: cfg.DurableDir}
	fmt.Fprintf(&r.out, "=== scenario (seed %d) ===\n", cfg.Seed)
	var err error
	if r.ownDir = cfg.DurableDir == ""; r.ownDir { // every drill spills, so any of them may restart
		r.DurableDir, err = os.MkdirTemp("", "confbench-drill-")
	} else if old, _ := os.ReadDir(cfg.DurableDir); len(old) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrDirInUse, cfg.DurableDir)
	}
	for i := 0; err == nil && i < len(sc.Steps); i++ {
		fmt.Fprintf(&r.out, "%-44s", sc.Steps[i].Text)
		if err = r.step(ctx, sc.Steps[i]); err != nil {
			err = fmt.Errorf("scenario line %d (%s): %w", sc.Steps[i].Line, sc.Steps[i].Text, err)
		}
		r.out.WriteByte('\n')
	}
	if err == nil {
		r.Final, err = r.observe(ctx)
	}
	if err != nil {
		return nil, errors.Join(err, r.Close())
	}
	r.render()
	return r, nil
}

// boot brings the topology up on a fresh registry — a restart's
// counters start from zero, as a new process's would — and uploads the
// functions.
func (r *Run) boot(ctx context.Context) error {
	c, err := confbench.New(append(slices.Clone(r.sc.Topology),
		confbench.WithSeed(r.cfg.Seed), confbench.WithTransport(r.cfg.Transport),
		confbench.WithDurableDir(r.DurableDir), confbench.WithFaultPlane(r.Faults),
		confbench.WithObsRegistry(confbench.NewObsRegistry()), confbench.WithSLOSpec(r.sc.SLO))...)
	if err != nil {
		return err
	}
	r.Cluster = c
	if r.cfg.Transport == wire.TransportBinary {
		r.carrier = wire.NewBinary(c.Obs())
	}
	for i := 0; i < r.sc.Functions; i++ {
		fn := confbench.Function{Name: fmt.Sprintf("fn-%d", i), Language: "go", Workload: r.sc.Workload}
		if err := c.Client().Upload(ctx, fn); err != nil {
			return err
		}
	}
	return nil
}

// shutdown closes the deployment and the clients' carrier.
func (r *Run) shutdown() error {
	if r.Cluster == nil {
		return nil
	}
	err := r.Cluster.Close()
	if r.carrier != nil {
		err = errors.Join(err, r.carrier.Close())
	}
	r.Cluster, r.carrier = nil, nil
	return err
}

// client makes one attempt per call, so every failure the deployment
// lets through is one counted outcome.
func (r *Run) client(tenant string) (*api.Client, error) {
	opts := []api.Option{api.WithRetries(1), api.WithTenant(tenant)}
	if r.carrier != nil {
		opts = append(opts, api.WithTransport(r.carrier))
	}
	return api.New(r.Cluster.GatewayURL(), opts...)
}

// observe reads the plane the way an operator would, over the front
// door's /v1/metrics, /v1/obs/slo, /v1/obs/alerts and /v1/obs/events.
// Only the rate series is read in-process: /v1/obs/cluster would sweep
// again, on the wall clock.
func (r *Run) observe(ctx context.Context) (Reading, error) {
	client, err := r.client("")
	if err != nil {
		return Reading{}, err
	}
	var rd Reading
	var errs [4]error
	rd.Metrics, errs[0] = client.Metrics(ctx)
	rd.Metrics.UptimeSeconds = 0
	rd.Status, errs[1] = client.SLOStatus(ctx)
	rd.Timeline, errs[2] = client.Alerts(ctx)
	rd.Events, errs[3] = client.ObsEvents(ctx)
	if s := r.Cluster.Plane().Series().Get(obs.RateInvokesPerSec); s != nil {
		rd.Samples, rd.Rate = s.Len(), s.Rate(s.Len())
	}
	return rd, errors.Join(errs[:]...)
}

func (rd Reading) String() string {
	s := fmt.Sprintf("invocations=%d errors=%d attestations=%d rate=%g/s over %d samples events=%d transitions=%d",
		rd.Metrics.Invocations, rd.Metrics.Errors, rd.Metrics.Attestations, rd.Rate, rd.Samples, len(rd.Events), len(rd.Timeline))
	for _, st := range rd.Status {
		s += fmt.Sprintf(" %s=%s", st.Objective, st.State)
	}
	return s
}

// step carries out one line and writes the rest of its report line.
func (r *Run) step(ctx context.Context, st Step) error {
	switch st.Verb {
	case "boot":
		return r.boot(ctx)
	case "chaos":
		for _, spec := range st.Faults {
			if err := r.Faults.Register(spec); err != nil {
				return err
			}
		}
	case "invoke", "attest":
		return r.load(ctx, st)
	case "sweep":
		n := len(r.Sweeps) + 1
		cs := r.Cluster.Plane().ScrapeOnce(ctx, Epoch.Add(time.Duration(n)*time.Second))
		r.Sweeps = append(r.Sweeps, cs)
		failed := make([]string, 0, len(cs.ScrapeErrors)) // names only: the messages hold ports
		for name := range cs.ScrapeErrors {
			failed = append(failed, name)
		}
		sort.Strings(failed)
		fmt.Fprintf(&r.out, " @%ds targets=%d failed=%v", n, len(cs.Hosts), failed)
		rd, err := r.observe(ctx)
		for _, s := range rd.Status {
			fmt.Fprintf(&r.out, " %s=%s", s.Objective, s.State)
		}
		return err
	case "drain":
		rep, err := r.Cluster.DrainHost(ctx, st.Target)
		if err != nil {
			return err
		}
		r.Drains = append(r.Drains, rep)
		fmt.Fprintf(&r.out, " quiesced=%d removed=%d", rep.Quiesced, rep.Removed)
		for i, m := range rep.Migrations { // numbered: guest IDs count up process-wide
			fmt.Fprintf(&r.out, "\n  guest %d %s downtime=%dns resumes=%d bytes=%d",
				i+1, m.Outcome, m.DowntimeNs, m.Resumes, m.TransferredBytes)
		}
	case "kill":
		if slices.Contains(r.Cluster.ShardNames(), st.Target) {
			return r.Cluster.CloseShard(st.Target)
		}
		return r.Cluster.CloseHost(st.Target)
	case "restart":
		before, err := r.observe(ctx)
		if err == nil {
			err = r.shutdown()
		}
		if err == nil {
			err = r.boot(ctx)
		}
		if err != nil {
			return err
		}
		after, err := r.observe(ctx)
		r.Restarts = append(r.Restarts, Restart{before, after})
		fmt.Fprintf(&r.out, "\n  before: %s\n  after:  %s", before, after)
		return err
	}
	return nil
}

// load issues one invoke or attest step. Operation i of a run is secure
// when i is even, calls function (i/2) mod F and — unless the step pins
// one — TEE (i/2F) mod K, so the mix walks every combination once per
// 2·F·K operations; an attest rotates over the TEEs alone.
func (r *Run) load(ctx context.Context, st Step) error {
	client, err := r.client(st.Tenant)
	if err != nil {
		return err
	}
	kinds, fns := r.Cluster.Kinds(), r.sc.Functions
	var ok, failed int
	var virtual int64
	for j := 0; j < st.N && ctx.Err() == nil; j, r.ops = j+1, r.ops+1 {
		req := confbench.InvokeRequest{Function: fmt.Sprintf("fn-%d", r.ops/2%fns), Secure: r.ops%2 == 0,
			TEE: kinds[r.ops/2/fns%len(kinds)], Scale: 1}
		if st.Verb == "attest" {
			req.TEE = kinds[r.ops%len(kinds)]
		}
		if st.TEE != "" {
			req.TEE = st.TEE
		}
		var resp confbench.InvokeResponse
		var err error
		switch {
		case st.Verb == "attest":
			_, err = client.Attest(ctx, api.AttestRequest{TEE: req.TEE, Nonce: []byte(fmt.Sprintf("drill-%d", r.ops))})
		case st.Async:
			var sub confbench.AsyncSubmitResponse
			if sub, err = client.InvokeAsync(ctx, req); err == nil {
				resp, err = client.AwaitResult(ctx, sub.ID, 0)
			}
		default:
			resp, err = client.Invoke(ctx, req)
		}
		if err == nil {
			ok, virtual = ok+1, virtual+resp.WallNs
		} else {
			failed++
		}
		if (err != nil) != st.Fail {
			r.Unexpected = append(r.Unexpected, fmt.Sprintf("line %d, %s %d of %d: marked fail=%v, got error %v",
				st.Line, st.Verb, j+1, st.N, st.Fail, err))
		}
	}
	r.ok, r.failed, r.virtual = r.ok+ok, r.failed+failed, r.virtual+virtual
	fmt.Fprintf(&r.out, " ok=%d failed=%d virtual=%dns", ok, failed, virtual)
	return ctx.Err()
}

// render closes the report: totals, the plane, the fault history, the
// deployment registry's deterministic families, the SLO table and
// timeline, and the verdict.
func (r *Run) render() {
	w := &r.out
	fmt.Fprintf(w, "totals: ok=%d failed=%d unexpected=%d virtual=%dns\n", r.ok, r.failed, len(r.Unexpected), r.virtual)
	fmt.Fprintf(w, "plane:  %s\n", r.Final)
	history := r.Faults.History()
	for i, inj := range history {
		if !strings.HasPrefix(inj.VM, inj.Host) { // a guest ID, not a host's VM: those count up process-wide
			history[i].VM = ""
		}
	}
	fmt.Fprintf(w, "faults: %d injected, history sha256 %.8x\n", len(history), sha256.Sum256([]byte(fmt.Sprint(history))))
	var prom strings.Builder
	r.Cluster.Obs().WritePrometheus(&prom) // ordered by metric id
	for _, line := range strings.SplitAfter(prom.String(), "\n") {
		if i := strings.IndexAny(line, "{ "); i > 0 && slices.Contains(reportFamilies, line[:i]) {
			w.WriteString("  " + line)
		}
	}
	r.Violated = slo.Violated(r.Final.Status, r.Final.Timeline)
	fmt.Fprintf(w, "%sverdict: violated=%v\n", slo.Render(r.Final.Status, r.Final.Timeline), r.Violated)
	r.Report = w.String()
}

// Close shuts the deployment down and reports any goroutine that
// outlived it. Idempotent.
func (r *Run) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.shutdown()
	if r.ownDir {
		err = errors.Join(err, os.RemoveAll(r.DurableDir))
	}
	// The REST client's idle connections, and http.DefaultTransport's,
	// which the httpjson carrier and the collateral fetch dial through.
	api.CloseIdleConnections()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	for deadline := time.Now().Add(settle); ; time.Sleep(10 * time.Millisecond) {
		var born int
		for id := range goroutines() {
			if !r.baseline[id] {
				born++
			}
		}
		if born == 0 {
			return err
		}
		if time.Now().After(deadline) {
			return errors.Join(err, fmt.Errorf("%w: %d started after boot", ErrLeak, born))
		}
	}
}

// goroutines returns the IDs of the live goroutines but the caller's,
// read off a full stack dump: each record opens "goroutine ID [", and
// the caller's comes first. Comparing identities, not counts, keeps a
// goroutine from before boot that exits meanwhile from hiding a leak.
func goroutines() map[string]bool {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]bool{}
	for _, rec := range strings.Split(string(buf[:n]), "\n\n")[1:] {
		if id, _, ok := strings.Cut(strings.TrimPrefix(rec, "goroutine "), " "); ok {
			ids[id] = true
		}
	}
	return ids
}

// Finish closes the run and makes the checks every scenario gets,
// whatever it scripts: no client-visible outcome the script did not
// mark, no goroutine outliving Close, and a second run at the same seed
// rendering a byte-identical report. The fourth — the SLO verdict — is
// r.Violated, for the caller to hold against the verdict it wanted.
func (r *Run) Finish(ctx context.Context) error {
	var errs []error
	if len(r.Unexpected) > 0 {
		errs = append(errs, fmt.Errorf("%w:\n  %s", ErrUnexpected, strings.Join(r.Unexpected, "\n  ")))
	}
	errs = append(errs, r.Close())
	cfg := r.cfg
	cfg.DurableDir = "" // a directory of its own: the first run's spill would replay into the second
	again, err := Drive(ctx, r.sc, cfg)
	if err != nil {
		return errors.Join(append(errs, fmt.Errorf("same-seed rerun: %w", err))...)
	}
	return errors.Join(append(errs, again.Close(), sameReport(r.Report, again.Report))...)
}

// sameReport holds two runs of one scenario at one seed to each other.
func sameReport(first, second string) error {
	if first == second {
		return nil
	}
	return fmt.Errorf("%w:\n--- first ---\n%s--- second ---\n%s", ErrNondeterministic, first, second)
}
