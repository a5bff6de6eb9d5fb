package obs

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestEscapeLabelValues(t *testing.T) {
	// Regression: `"` and `\` in label values used to emit invalid
	// Prometheus 0.0.4 exposition text.
	r := New()
	r.Counter("confbench_esc_total", "path", `C:\tmp`, "q", `say "hi"`, "nl", "a\nb").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `confbench_esc_total{nl="a\nb",path="C:\\tmp",q="say \"hi\""} 1` + "\n"
	if got := b.String(); !strings.Contains(got, want) {
		t.Errorf("exposition = %q, want it to contain %q", got, want)
	}
	// MetricID (the snapshot key) must use the same escaping.
	id := MetricID("confbench_esc_total", "path", `C:\tmp`, "q", `say "hi"`, "nl", "a\nb")
	if !strings.HasSuffix(want, " 1\n") || !strings.Contains(want, id) {
		t.Errorf("MetricID %q not consistent with exposition %q", id, want)
	}
}

func TestEscapeUnescapeRoundTrip(t *testing.T) {
	for _, v := range []string{"", "plain", `C:\tmp`, `say "hi"`, "a\nb", `\\\"`, `trailing\`} {
		if got := unescapeLabelValue(escapeLabelValue(v)); got != v {
			t.Errorf("round trip %q → %q", v, got)
		}
	}
}

func TestHistogramNegativeObservation(t *testing.T) {
	r := New()
	h := r.Histogram("confbench_neg_seconds")
	h.Observe(-5 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	if got := h.Count(); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	// The negative observation is clamped to zero, not subtracted.
	if got := h.Sum(); got != 2*time.Millisecond {
		t.Errorf("sum = %v, want 2ms", got)
	}
	if got := r.Counter(InvalidObservationsFamily).Value(); got != 1 {
		t.Errorf("invalid counter = %d, want 1", got)
	}
	// Registry-less histograms still clamp, without counting.
	bare := newHistogram([]float64{1})
	bare.Observe(-time.Second)
	if got := bare.Sum(); got != 0 {
		t.Errorf("bare sum = %v, want 0", got)
	}
}

func TestHistogramExemplars(t *testing.T) {
	r := New()
	h := r.HistogramWith("confbench_ex_seconds", []float64{0.001, 0.1})
	h.ObserveExemplar(500*time.Microsecond, "inv-1")
	h.ObserveExemplar(50*time.Millisecond, "inv-2")
	h.ObserveExemplar(700*time.Microsecond, "inv-3") // overwrites inv-1's bucket
	h.Observe(time.Second)                           // no exemplar for +Inf
	if got := h.Exemplar(0); got != "inv-3" {
		t.Errorf("bucket 0 exemplar = %q, want inv-3", got)
	}
	if got := h.Exemplar(1); got != "inv-2" {
		t.Errorf("bucket 1 exemplar = %q, want inv-2", got)
	}
	if got := h.Exemplar(2); got != "" {
		t.Errorf("+Inf exemplar = %q, want empty", got)
	}
	if got := h.Exemplar(99); got != "" {
		t.Errorf("out-of-range exemplar = %q, want empty", got)
	}
	snap := r.Snapshot().Histograms["confbench_ex_seconds"]
	if len(snap.Exemplars) != 3 || snap.Exemplars[0] != "inv-3" || snap.Exemplars[1] != "inv-2" {
		t.Errorf("snapshot exemplars = %v", snap.Exemplars)
	}
	// Exemplar-free histograms keep the field absent.
	plain := New()
	plain.Histogram("confbench_plain_seconds").Observe(time.Millisecond)
	if ex := plain.Snapshot().Histograms["confbench_plain_seconds"].Exemplars; ex != nil {
		t.Errorf("exemplar-free snapshot has Exemplars = %v", ex)
	}
}

func TestWithLabel(t *testing.T) {
	cases := []struct{ id, want string }{
		{"confbench_x_total", `confbench_x_total{host="h1"}`},
		{`confbench_x_total{tee="tdx"}`, `confbench_x_total{host="h1",tee="tdx"}`},
		{`confbench_x_total{zz="1"}`, `confbench_x_total{host="h1",zz="1"}`},
		// Existing host labels survive as exported_host.
		{`confbench_breaker_state{host="sev-host",tee="sev-snp"}`,
			`confbench_breaker_state{exported_host="sev-host",host="h1",tee="sev-snp"}`},
		// Escaped values survive the re-parse.
		{`confbench_x_total{p="a\\b\"c"}`, `confbench_x_total{host="h1",p="a\\b\"c"}`},
	}
	for _, c := range cases {
		if got := WithLabel(c.id, "host", "h1"); got != c.want {
			t.Errorf("WithLabel(%q) = %q, want %q", c.id, got, c.want)
		}
	}
}

// hostSnap builds a small distinct snapshot for one fake host.
func hostSnap(seed uint64) Snapshot {
	r := New()
	r.Counter("confbench_hostagent_requests_total", "vm", "vm-a").Add(seed)
	r.Gauge("confbench_warm_pool_idle", "tee", "tdx").Set(int64(seed % 5))
	h := r.HistogramWith("confbench_hostagent_request_seconds", []float64{0.001, 0.1})
	for i := uint64(0); i < seed%4+1; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}
	return r.Snapshot()
}

func TestMergeSnapshotsDeterministic(t *testing.T) {
	// Federated cluster snapshots from N fake hosts must render
	// byte-identically regardless of scrape arrival order.
	hosts := []string{"cca-host", "sev-host", "tdx-host", "tdx-host-2"}
	build := func(order []int) string {
		in := make(map[string]Snapshot, len(hosts))
		for _, i := range order {
			in[hosts[i]] = hostSnap(uint64(i*7 + 3))
		}
		var b strings.Builder
		if err := WriteSnapshotPrometheus(&b, MergeSnapshots(in)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := build([]int{0, 1, 2, 3})
	bOut := build([]int{3, 1, 0, 2})
	if a != bOut {
		t.Fatalf("merged exposition depends on scrape arrival order:\n%s\nvs\n%s", a, bOut)
	}
	for _, h := range hosts {
		if !strings.Contains(a, `host="`+h+`"`) {
			t.Errorf("merged exposition missing host %q", h)
		}
	}
	// The merged view must also be addressable by canonical ID.
	merged := MergeSnapshots(map[string]Snapshot{"h1": hostSnap(9), "h2": hostSnap(2)})
	if got := merged.Counters[`confbench_hostagent_requests_total{host="h1",vm="vm-a"}`]; got != 9 {
		t.Errorf("merged counter = %d, want 9", got)
	}
	if got := merged.Counters[`confbench_hostagent_requests_total{host="h2",vm="vm-a"}`]; got != 2 {
		t.Errorf("merged counter = %d, want 2", got)
	}
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	hs := HistogramSnapshot{
		Bounds: []float64{0.001, 0.01, 0.1},
		Counts: []uint64{10, 80, 10, 0},
		Count:  100,
	}
	if got := hs.Quantile(0.5); got <= 0.001 || got > 0.01 {
		t.Errorf("p50 = %g, want within (0.001, 0.01]", got)
	}
	if got := hs.Quantile(0.99); got <= 0.01 || got > 0.1 {
		t.Errorf("p99 = %g, want within (0.01, 0.1]", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
	// Mass in +Inf: the last finite bound is the best answer.
	inf := HistogramSnapshot{Bounds: []float64{0.001}, Counts: []uint64{0, 5}, Count: 5}
	if got := inf.Quantile(0.9); got != 0.001 {
		t.Errorf("+Inf quantile = %g, want 0.001", got)
	}
}

func TestLintMetricNames(t *testing.T) {
	// The whole repo must pass its own metric-naming lint.
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
	violations, err := LintMetricNames(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Errorf("lint-metrics: %s", v)
	}

	// And the linter itself must catch every rule violation: prefix,
	// counter suffix, histogram unit suffix, and the gauge _total ban.
	bad := t.TempDir()
	src := `package bad

type reg struct{}

func (reg) Counter(string, ...string) int   { return 0 }
func (reg) Gauge(string, ...string) int     { return 0 }
func (reg) Histogram(string, ...string) int { return 0 }

func use(r reg) {
	r.Counter("confbench_missing_suffix")
	r.Counter("wrong_prefix_total")
	r.Gauge("not_confbench_depth")
	r.Gauge("confbench_queue_total")
	r.Histogram("confbench_latency_unitless")
	r.Histogram("confbench_wait_seconds")
}
`
	if err := os.WriteFile(filepath.Join(bad, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	violations, err = LintMetricNames(bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 5 {
		t.Errorf("violations = %v, want 5", violations)
	}
	wantFrags := []string{"must start", "must end in \"_total\"", "must not end in \"_total\"", "unit suffix"}
	for _, frag := range wantFrags {
		found := false
		for _, v := range violations {
			if strings.Contains(v, frag) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no violation mentions %q in %v", frag, violations)
		}
	}
}

// TestMergeSnapshotsBy: the front tier federates whole gateway shards
// under a "shard" label; a snapshot already carrying that label (a
// shard's own federated view) keeps the inner pair as exported_shard.
func TestMergeSnapshotsBy(t *testing.T) {
	merged := MergeSnapshotsBy("shard", map[string]Snapshot{
		"shard-0": hostSnap(4),
		"shard-1": hostSnap(6),
	})
	if got := merged.Counters[`confbench_hostagent_requests_total{shard="shard-0",vm="vm-a"}`]; got != 4 {
		t.Errorf("shard-0 counter = %d, want 4", got)
	}
	if got := merged.Counters[`confbench_hostagent_requests_total{shard="shard-1",vm="vm-a"}`]; got != 6 {
		t.Errorf("shard-1 counter = %d, want 6", got)
	}
	// Collision: an inner shard label survives as exported_shard.
	inner := Snapshot{
		Counters: map[string]uint64{`confbench_x_total{shard="inner"}`: 1},
	}
	m2 := MergeSnapshotsBy("shard", map[string]Snapshot{"outer": inner})
	if _, ok := m2.Counters[`confbench_x_total{exported_shard="inner",shard="outer"}`]; !ok {
		t.Errorf("inner shard label not preserved as exported_shard; got %v", m2.Counters)
	}
}
