package slo

import (
	"strings"
	"testing"
	"time"
)

// TestRender pins the error-budget table and timeline the alerts
// subcommand and the scenario reports print.
func TestRender(t *testing.T) {
	statuses := []Status{
		{Objective: "avail", Kind: KindAvailability, Target: "success>=99%",
			State: StateFiring, BurnShort: 28.57, BurnLong: 18.18, BudgetRemaining: -1.857},
		{Objective: "tdx-lat", Kind: KindLatency, Target: "p99<250ms", TEE: "tdx",
			State: StateOK, BudgetRemaining: 1},
	}
	timeline := []Transition{
		{Objective: "avail", From: StateOK, To: StateWarn,
			AtUnixNs: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC).UnixNano(),
			Trace:    "inv-31", Detail: "ok->warn short=6.45x long=3.28x budget=0.871"},
		{Objective: "avail", From: StateWarn, To: StateFiring,
			AtUnixNs: time.Date(2026, 8, 8, 12, 0, 10, 0, time.UTC).UnixNano(),
			Detail:   "warn->firing short=28.57x long=18.18x budget=-1.857"},
	}
	out := Render(statuses, timeline)
	for _, want := range []string{
		"OBJECTIVE", "BURN(S)", "BUDGET",
		"avail", "firing", "28.57x", "-185.7%",
		"tdx-lat[tdx]", "p99<250ms",
		"timeline:",
		"2026-08-08T12:00:00Z", "ok->warn", "trace=inv-31",
		"2026-08-08T12:00:10Z", "warn->firing", "trace=-",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
	if got := Render(nil, nil); !strings.Contains(got, "no SLO objectives") {
		t.Errorf("empty statuses = %q", got)
	}
	if got := Render(statuses, nil); !strings.Contains(got, "no alert transitions") {
		t.Errorf("empty timeline missing notice:\n%s", got)
	}
}

// TestViolated pins the gate's verdict: firing now, overspent, or fired
// along the way.
func TestViolated(t *testing.T) {
	ok := Status{State: StateOK, BudgetRemaining: 1}
	for _, tc := range []struct {
		name     string
		statuses []Status
		timeline []Transition
		want     bool
	}{
		{"clean", []Status{ok}, nil, false},
		{"warned only", []Status{ok}, []Transition{{To: StateWarn}, {To: StateOK}}, false},
		{"firing now", []Status{{State: StateFiring, BudgetRemaining: 0.5}}, nil, true},
		{"overspent", []Status{{State: StateOK, BudgetRemaining: -0.1}}, nil, true},
		{"fired and recovered", []Status{ok}, []Transition{{To: StateFiring}, {To: StateResolved}}, true},
	} {
		if got := Violated(tc.statuses, tc.timeline); got != tc.want {
			t.Errorf("%s: Violated = %v, want %v", tc.name, got, tc.want)
		}
	}
}
