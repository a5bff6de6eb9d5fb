// Package slo turns the telemetry plane into a judgment: declarative
// service-level objectives evaluated continuously over the federated
// obs.SeriesSet rings, with Google-SRE-style multi-window
// multi-burn-rate alerting driving a per-objective state machine
// (ok → warn → firing → resolved).
//
// Objectives are declared in the same colon-delimited spec grammar as
// the fault plane's -chaos specs:
//
//	name:kind:target[:tee=KIND][:short=N][:long=N][:budget=N][:page=F][:warn=F]
//
// where kind is one of availability | latency | downtime | attest,
// and target is either a success fraction ("success>=99.9%", for
// availability/attest) or a latency percentile bound ("p99<250ms",
// for latency/downtime). Several specs are comma-separated:
//
//	invoke-availability:availability:success>=99.9%,tdx-latency:latency:p99<250ms:tee=tdx
package slo

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"confbench/internal/colonspec"
)

// Kind classifies what an objective measures.
type Kind string

const (
	// KindAvailability targets the success fraction of /v1/invoke
	// requests (good = HTTP status < 500).
	KindAvailability Kind = "availability"
	// KindLatency targets an invoke latency percentile per TEE,
	// measured against the confbench_invoke_seconds histograms.
	KindLatency Kind = "latency"
	// KindDowntime targets the live-migration blackout percentile,
	// measured against confbench_migration_downtime_seconds.
	KindDowntime Kind = "downtime"
	// KindAttest targets the success fraction of /v1/attest requests.
	KindAttest Kind = "attest"
)

// Window and threshold defaults, in federation sweeps and burn-rate
// multiples. The 14.4×/6× pair is the classic SRE-workbook ladder:
// at 14.4× a 30-day budget is gone in 2 days (page), at 6× in 5 days
// (warn).
const (
	DefaultShortWindow = 6
	DefaultLongWindow  = 30
	DefaultPageBurn    = 14.4
	DefaultWarnBurn    = 6.0
)

// Objective is one parsed SLO declaration.
type Objective struct {
	// Name identifies the objective in metrics, alerts, and the CLI.
	Name string
	// Kind selects the measured signal.
	Kind Kind
	// Target is the good-event fraction the objective demands, in
	// (0,1): 0.999 for "success>=99.9%" and 0.99 for "p99<250ms".
	// The error budget is 1-Target.
	Target float64
	// TargetRaw is the target token as written, for display.
	TargetRaw string
	// Threshold is the latency/downtime bound below which an
	// observation counts as good. Zero for availability/attest.
	Threshold time.Duration
	// TEE restricts latency/downtime objectives to one platform
	// (matches the histogram's tee label); empty means every TEE.
	TEE string
	// Short and Long are the two burn-rate windows, in federation
	// sweeps. An alert level is reached only when BOTH windows burn
	// above its threshold — the short window makes alerts reset
	// quickly once the bleeding stops, the long window keeps blips
	// from paging.
	Short, Long int
	// BudgetWindow bounds the remaining-budget computation, in
	// sweeps; 0 means the whole retained ring.
	BudgetWindow int
	// Page and Warn are the burn-rate multiples that drive the state
	// machine to firing and warn respectively.
	Page, Warn float64
}

// Budget is the objective's error budget: the fraction of events
// allowed to be bad.
func (o Objective) Budget() float64 { return 1 - o.Target }

// ParseSpecs parses a comma-separated list of SLO specs and rejects
// duplicate objective names.
func ParseSpecs(s string) ([]Objective, error) {
	var out []Objective
	seen := make(map[string]bool)
	for _, part := range colonspec.List(s) {
		if part == "" {
			return nil, fmt.Errorf("slo: empty spec in list %q", s)
		}
		o, err := ParseSpec(part)
		if err != nil {
			return nil, err
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective name %q", o.Name)
		}
		seen[o.Name] = true
		out = append(out, o)
	}
	return out, nil
}

// ParseSpec parses a single spec in the grammar
// name:kind:target[:key=value...]; see the package comment.
func ParseSpec(s string) (Objective, error) {
	pos, opts, err := colonspec.Split(s, "name:kind:target[:key=value...]")
	if err != nil {
		return Objective{}, fmt.Errorf("slo: %w", err)
	}
	o := Objective{
		Name:  strings.TrimSpace(pos[0]),
		Kind:  Kind(strings.TrimSpace(pos[1])),
		Short: DefaultShortWindow,
		Long:  DefaultLongWindow,
		Page:  DefaultPageBurn,
		Warn:  DefaultWarnBurn,
	}
	if o.Name == "" {
		return Objective{}, fmt.Errorf("slo: spec %q: empty objective name", s)
	}
	switch o.Kind {
	case KindAvailability, KindLatency, KindDowntime, KindAttest:
	default:
		return Objective{}, fmt.Errorf("slo: spec %q: unknown kind %q (want availability, latency, downtime, or attest)", s, pos[1])
	}
	if err := o.parseTarget(strings.TrimSpace(pos[2])); err != nil {
		return Objective{}, fmt.Errorf("slo: spec %q: %w", s, err)
	}
	for _, opt := range opts {
		key, val := opt.Key, opt.Value
		var err error
		switch key {
		case "tee":
			if o.Kind == KindAvailability || o.Kind == KindAttest {
				return Objective{}, fmt.Errorf("slo: spec %q: tee= applies only to latency/downtime objectives", s)
			}
			o.TEE = val
		case "short":
			o.Short, err = parseSweeps(key, val)
		case "long":
			o.Long, err = parseSweeps(key, val)
		case "budget":
			o.BudgetWindow, err = strconv.Atoi(val)
			if err != nil || o.BudgetWindow < 0 {
				err = fmt.Errorf("budget=%q must be a non-negative sweep count", val)
			}
		case "page":
			o.Page, err = parseBurn(key, val)
		case "warn":
			o.Warn, err = parseBurn(key, val)
		default:
			return Objective{}, fmt.Errorf("slo: spec %q: unknown option %q", s, key)
		}
		if err != nil {
			return Objective{}, fmt.Errorf("slo: spec %q: %w", s, err)
		}
	}
	if o.Long < o.Short {
		return Objective{}, fmt.Errorf("slo: spec %q: long window %d shorter than short window %d", s, o.Long, o.Short)
	}
	if o.Page < o.Warn {
		return Objective{}, fmt.Errorf("slo: spec %q: page burn %g below warn burn %g", s, o.Page, o.Warn)
	}
	return o, nil
}

// parseTarget fills Target/TargetRaw/Threshold from the target token:
// "success>=99.9%" for availability/attest, "p99<250ms" for
// latency/downtime.
func (o *Objective) parseTarget(target string) error {
	o.TargetRaw = target
	switch o.Kind {
	case KindAvailability, KindAttest:
		rest, ok := strings.CutPrefix(target, "success>=")
		if !ok {
			return fmt.Errorf("target %q: %s objectives want success>=PCT%%", target, o.Kind)
		}
		rest, ok = strings.CutSuffix(rest, "%")
		if !ok {
			return fmt.Errorf("target %q: missing %% suffix", target)
		}
		pct, err := strconv.ParseFloat(rest, 64)
		if err != nil || pct <= 0 || pct >= 100 {
			return fmt.Errorf("target %q: percentage must be in (0,100)", target)
		}
		o.Target = pct / 100
	case KindLatency, KindDowntime:
		rest, ok := strings.CutPrefix(target, "p")
		if !ok {
			return fmt.Errorf("target %q: %s objectives want pNN<DURATION", target, o.Kind)
		}
		pctStr, durStr, ok := strings.Cut(rest, "<")
		if !ok {
			return fmt.Errorf("target %q: missing < between percentile and bound", target)
		}
		pct, err := strconv.ParseFloat(pctStr, 64)
		if err != nil || pct <= 0 || pct >= 100 {
			return fmt.Errorf("target %q: percentile must be in (0,100)", target)
		}
		d, err := time.ParseDuration(durStr)
		if err != nil || d <= 0 {
			return fmt.Errorf("target %q: bound %q is not a positive duration", target, durStr)
		}
		o.Target = pct / 100
		o.Threshold = d
	}
	return nil
}

func parseSweeps(key, val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("%s=%q must be a positive sweep count", key, val)
	}
	return n, nil
}

func parseBurn(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || f <= 0 {
		return 0, fmt.Errorf("%s=%q must be a positive burn-rate multiple", key, val)
	}
	return f, nil
}
