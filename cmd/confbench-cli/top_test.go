package main

import (
	"strings"
	"testing"
	"time"

	"confbench/internal/obs"
	"confbench/internal/slo"
)

// TestRenderTop pins the cluster table against a synthetic federated
// snapshot: rates come from the client-side series, percentiles from
// the merged histogram, and only gateway-owned entries count.
func TestRenderTop(t *testing.T) {
	checkouts := obs.MetricID("confbench_pool_checkouts_total", "host", "gateway", "tee", "tdx")
	merged := obs.Snapshot{
		Counters: map[string]uint64{
			checkouts: 20,
			// Same counter under a scrape host: must not add a row.
			obs.MetricID("confbench_pool_checkouts_total", "host", "tdx-host", "tee", "tdx"): 20,
			obs.MetricID("confbench_warm_hits_total", "host", "gateway", "tee", "tdx"):       3,
			obs.MetricID("confbench_warm_misses_total", "host", "gateway", "tee", "tdx"):     1,
		},
		Gauges: map[string]int64{
			obs.MetricID("confbench_breaker_state", "endpoint", "a", "host", "gateway", "tee", "tdx"): 0,
			obs.MetricID("confbench_breaker_state", "endpoint", "b", "host", "gateway", "tee", "tdx"): 1,
		},
		Histograms: map[string]obs.HistogramSnapshot{
			obs.MetricID("confbench_invoke_seconds", "host", "gateway", "tee", "tdx"): {
				Bounds:     []float64{0.001, 0.01, 0.1},
				Counts:     []uint64{8, 2, 0, 0},
				SumSeconds: 0.02,
				Count:      10,
			},
		},
	}
	cs := obs.ClusterSnapshot{
		Hosts:        []string{"gateway", "tdx-host"},
		ScrapeErrors: map[string]string{"dead-host": "connection refused"},
		Rates:        map[string]float64{obs.RateInvokesPerSec: 5.5},
		Merged:       merged,
	}

	set := obs.NewSeriesSet(8)
	t0 := time.Unix(1000, 0)
	before := merged
	before.Counters = map[string]uint64{checkouts: 10}
	set.RecordSnapshot(t0, before)
	set.RecordSnapshot(t0.Add(time.Second), merged)

	statuses := []slo.Status{
		{Objective: "avail", Kind: slo.KindAvailability, State: slo.StateWarn, BurnShort: 6.4},
		{Objective: "tdx-lat", Kind: slo.KindLatency, TEE: "tdx", State: slo.StateFiring, BurnShort: 28.6},
		{Objective: "sev-lat", Kind: slo.KindLatency, TEE: "sev-snp", State: slo.StateOK},
	}
	out := renderTop(cs, set, 8, statuses)
	for _, want := range []string{
		"TEE", "tdx",
		"ALERT",              // new SLO column header
		"firing 28.6x",       // worst matching objective for tdx wins
		"10.00",              // (20-10)/1s from the series
		"1 closed, 1 open",   // breaker summary
		"75.0",               // warm hit ratio 3/(3+1)
		"hosts: 2",           // scraped hosts
		"(scrape errors: 1)", // dead target surfaced
		"cluster invokes/sec: 5.50",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("renderTop output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "\ntdx") != 1 {
		t.Fatalf("expected exactly one tdx row (gateway-owned only):\n%s", out)
	}

	// Against a pre-SLO gateway (no statuses) the column is blank and
	// the table still renders.
	blank := renderTop(cs, set, 8, nil)
	if !strings.Contains(blank, "ALERT") {
		t.Fatalf("header must keep the ALERT column:\n%s", blank)
	}
	if strings.Contains(blank, "firing") || strings.Contains(blank, "warn") {
		t.Fatalf("no statuses must render no alert states:\n%s", blank)
	}
}

// TestAlertCell pins the per-TEE summarization: TEE-selective
// objectives only match their platform, global ones match every row,
// and the worst state wins.
func TestAlertCell(t *testing.T) {
	statuses := []slo.Status{
		{Objective: "avail", State: slo.StateWarn, BurnShort: 6.45},
		{Objective: "tdx-lat", TEE: "tdx", State: slo.StateFiring, BurnShort: 28.6},
	}
	if got := alertCell(statuses, "tdx"); got != "firing 28.6x" {
		t.Errorf("tdx cell = %q, want \"firing 28.6x\"", got)
	}
	if got := alertCell(statuses, "sev-snp"); got != "warn 6.5x" {
		t.Errorf("sev cell = %q, want the global objective's \"warn 6.5x\"", got)
	}
	if got := alertCell(nil, "tdx"); got != "" {
		t.Errorf("no statuses = %q, want blank", got)
	}
	if got := alertCell([]slo.Status{{Objective: "x", TEE: "cca", State: slo.StateOK}}, "tdx"); got != "-" {
		t.Errorf("no matching objective = %q, want \"-\"", got)
	}
	if got := alertCell([]slo.Status{{Objective: "x", State: slo.StateOK}}, "tdx"); got != "ok" {
		t.Errorf("ok objective = %q, want \"ok\"", got)
	}
}

// TestBreakerStateName pins the gauge-value → label mapping.
func TestBreakerStateName(t *testing.T) {
	for v, want := range map[int64]string{0: "closed", 1: "open", 2: "half-open", 7: "closed"} {
		if got := breakerStateName(v); got != want {
			t.Fatalf("breakerStateName(%d) = %q, want %q", v, got, want)
		}
	}
}
