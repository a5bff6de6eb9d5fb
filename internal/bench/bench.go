// Package bench is ConfBench's experiment harness: one entry point per
// table and figure of the paper's evaluation (§IV), producing the same
// rows and series so the results can be compared shape-for-shape.
//
//	Fig. 3  — ML               → ML (stacked percentiles, secure vs normal)
//	DBMS §IV-C (text)          → DBMS (per-test secure/normal ratios)
//	Fig. 4  — UnixBench        → UnixBench (index-score time ratios)
//	Fig. 5  — Attestation      → Attestation (attest/check latencies)
//	Fig. 6  — FaaS TDX/SEV     → FaaS heatmaps (ratio per workload × language)
//	Fig. 7  — FaaS CCA         → FaaS heatmap on the CCA pair
//	Fig. 8  — CCA distribution → FaaS per-run samples → box plots
//
// Every experiment follows the paper's protocol — the same workload
// with the same arguments on the secure and the normal VM of one host,
// repeated for a number of independent trials, reported as the ratio of
// mean execution times (or the full distribution where a figure needs
// it) — through one paired measurement (pair.go): a body executes once,
// and what it metered is priced on both VMs of the pair under one key
// per trial; the VMs run the same code and differ only in how the TEE
// charges for it. A pair from a cluster carries the cluster's corpus
// (vm.Corpus), so a body executes once for every row and platform that
// measures it.
package bench

import (
	"confbench/internal/obs"
	"confbench/internal/stats"
	"confbench/internal/tee"
)

// Options tunes experiment size. The defaults trade a little
// statistical resolution for CI-friendly run times; the paper's exact
// protocol (10 trials, full scales) is one Options value away.
type Options struct {
	// Trials is the number of independent trials per measurement point
	// (paper: 10). A trial is a pricing: a body executes once and is
	// priced under one key per trial, since the bodies are pure and a
	// trial's variance only ever came from pricing (DESIGN.md §15).
	Trials int
	// ScaleDivisor divides each workload's default scale (1 = the
	// paper-equivalent size).
	ScaleDivisor int
	// Workers bounds how many measurement bodies (function
	// executions, images) run concurrently; the results do not depend
	// on it (see Runner).
	Workers int
	// Obs is the metrics registry the scheduling core reports to
	// (nil = the process-wide default).
	Obs *obs.Registry
}

// WithDefaults fills unset fields.
func (o Options) WithDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 10
	}
	if o.ScaleDivisor <= 0 {
		o.ScaleDivisor = 1
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// SecureNormal pairs distributions measured on the two VMs of a host.
type SecureNormal struct {
	Secure stats.Summary `json:"secure"`
	Normal stats.Summary `json:"normal"`
}

// Ratio returns the ratio of mean execution times, the paper's primary
// metric ("we systematically study the ratios between the confidential
// and the non-confidential execution time").
func (sn SecureNormal) Ratio() float64 {
	return stats.Ratio(sn.Secure.Mean, sn.Normal.Mean)
}

// KindsTDXSEV is the Fig. 6 platform set.
var KindsTDXSEV = []tee.Kind{tee.KindTDX, tee.KindSEV}
