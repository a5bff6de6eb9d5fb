package slo

import (
	"fmt"
	"strings"
	"time"
)

// Render renders the error-budget table (one row per objective: state,
// burn rates, remaining budget) and the alert timeline. It is what
// `confbench-cli alerts` prints and what a scenario report ends with.
func Render(statuses []Status, timeline []Transition) string {
	var b strings.Builder
	if len(statuses) == 0 {
		b.WriteString("no SLO objectives configured\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-24s %-12s %-16s %-9s %9s %9s %9s\n",
		"OBJECTIVE", "KIND", "TARGET", "STATE", "BURN(S)", "BURN(L)", "BUDGET")
	for _, s := range statuses {
		name := s.Objective
		if s.TEE != "" {
			name += "[" + s.TEE + "]"
		}
		fmt.Fprintf(&b, "%-24s %-12s %-16s %-9s %8.2fx %8.2fx %8.1f%%\n",
			name, s.Kind, s.Target, s.State, s.BurnShort, s.BurnLong, 100*s.BudgetRemaining)
	}
	if len(timeline) == 0 {
		b.WriteString("no alert transitions recorded\n")
		return b.String()
	}
	b.WriteString("timeline:\n")
	for _, tr := range timeline {
		trace := tr.Trace
		if trace == "" {
			trace = "-"
		}
		fmt.Fprintf(&b, "  %s  %-24s %s  trace=%s\n",
			time.Unix(0, tr.AtUnixNs).UTC().Format(time.RFC3339),
			tr.Objective, tr.Detail, trace)
	}
	return b.String()
}

// Violated is the verdict an SLO-gated run exits on: an objective is
// firing or has overspent its error budget, or one fired along the way.
func Violated(statuses []Status, timeline []Transition) bool {
	for _, s := range statuses {
		if s.State == StateFiring || s.BudgetRemaining < 0 {
			return true
		}
	}
	for _, tr := range timeline {
		if tr.To == StateFiring {
			return true
		}
	}
	return false
}
