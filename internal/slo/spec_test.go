package slo

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestParseSpecDefaults(t *testing.T) {
	o, err := ParseSpec("invoke-availability:availability:success>=99.9%")
	if err != nil {
		t.Fatal(err)
	}
	if o.Name != "invoke-availability" || o.Kind != KindAvailability {
		t.Errorf("name/kind = %q/%q", o.Name, o.Kind)
	}
	if math.Abs(o.Target-0.999) > 1e-12 || o.TargetRaw != "success>=99.9%" {
		t.Errorf("target = %g (%q), want 0.999", o.Target, o.TargetRaw)
	}
	if got := o.Budget(); got < 0.000999 || got > 0.001001 {
		t.Errorf("budget = %g, want ~0.001", got)
	}
	if o.Short != DefaultShortWindow || o.Long != DefaultLongWindow {
		t.Errorf("windows = %d/%d, want defaults %d/%d", o.Short, o.Long, DefaultShortWindow, DefaultLongWindow)
	}
	if o.Page != DefaultPageBurn || o.Warn != DefaultWarnBurn {
		t.Errorf("burns = %g/%g, want defaults", o.Page, o.Warn)
	}
	if o.BudgetWindow != 0 || o.TEE != "" || o.Threshold != 0 {
		t.Errorf("budget/tee/threshold = %d/%q/%v, want zero values", o.BudgetWindow, o.TEE, o.Threshold)
	}
}

func TestParseSpecLatencyWithOptions(t *testing.T) {
	o, err := ParseSpec("tdx-latency:latency:p99<250ms:tee=tdx:short=3:long=12:budget=60:page=10:warn=2.5")
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != KindLatency || o.Target != 0.99 || o.Threshold != 250*time.Millisecond {
		t.Errorf("kind/target/threshold = %q/%g/%v", o.Kind, o.Target, o.Threshold)
	}
	if o.TEE != "tdx" || o.Short != 3 || o.Long != 12 || o.BudgetWindow != 60 {
		t.Errorf("tee/short/long/budget = %q/%d/%d/%d", o.TEE, o.Short, o.Long, o.BudgetWindow)
	}
	if o.Page != 10 || o.Warn != 2.5 {
		t.Errorf("page/warn = %g/%g", o.Page, o.Warn)
	}
}

func TestParseSpecDowntimeAndAttest(t *testing.T) {
	if o, err := ParseSpec("blackout:downtime:p95<1s"); err != nil || o.Kind != KindDowntime || o.Target != 0.95 || o.Threshold != time.Second {
		t.Errorf("downtime spec: %+v, %v", o, err)
	}
	if o, err := ParseSpec("quote:attest:success>=99%"); err != nil || o.Kind != KindAttest || o.Target != 0.99 {
		t.Errorf("attest spec: %+v, %v", o, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		spec, frag string
	}{
		{"a:availability", "want name:kind:target"},
		{":availability:success>=99%", "empty objective name"},
		{"a:bogus:success>=99%", "unknown kind"},
		{"a:availability:p99<250ms", "success>=PCT%"},
		{"a:availability:success>=99.9", "missing % suffix"},
		{"a:availability:success>=0%", "(0,100)"},
		{"a:availability:success>=100%", "(0,100)"},
		{"a:availability:success>=nope%", "(0,100)"},
		{"a:latency:success>=99%", "pNN<DURATION"},
		{"a:latency:p99=250ms", "missing <"},
		{"a:latency:p0<250ms", "percentile must be in (0,100)"},
		{"a:latency:p99<-3ms", "positive duration"},
		{"a:latency:p99<wat", "positive duration"},
		{"a:availability:success>=99%:tee=tdx", "tee= applies only"},
		{"a:attest:success>=99%:tee=tdx", "tee= applies only"},
		{"a:availability:success>=99%:short=0", "positive sweep count"},
		{"a:availability:success>=99%:long=x", "positive sweep count"},
		{"a:availability:success>=99%:budget=-1", "non-negative sweep count"},
		{"a:availability:success>=99%:page=0", "positive burn-rate"},
		{"a:availability:success>=99%:warn=-2", "positive burn-rate"},
		{"a:availability:success>=99%:short=10:long=5", "shorter than short"},
		{"a:availability:success>=99%:page=2:warn=5", "page burn 2 below warn burn 5"},
		{"a:availability:success>=99%:unknown=1", "unknown option"},
		{"a:availability:success>=99%:noequals", `option "noequals": want key=value`},
	}
	for _, c := range cases {
		if _, err := ParseSpec(c.spec); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("ParseSpec(%q) = %v, want error containing %q", c.spec, err, c.frag)
		}
	}
}

func TestParseSpecs(t *testing.T) {
	objs, err := ParseSpecs("a:availability:success>=99.9%, b:latency:p99<250ms:tee=tdx")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 || objs[0].Name != "a" || objs[1].Name != "b" {
		t.Errorf("objs = %+v", objs)
	}
	if _, err := ParseSpecs("a:availability:success>=99%,a:attest:success>=99%"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names: %v", err)
	}
	if _, err := ParseSpecs("a:availability:success>=99%,,b:attest:success>=99%"); err == nil || !strings.Contains(err.Error(), "empty spec") {
		t.Errorf("empty element: %v", err)
	}
	if _, err := ParseSpecs("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}
