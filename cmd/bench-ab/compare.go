package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"confbench/internal/stats"
)

// claimShare is the share of pairs a moved metric must win (or lose):
// nine of ten, the rule a claimed gain is held to.
const claimShare = 0.9

// record is one bench-ab invocation as BENCH_<workload>.json keeps it.
type record struct {
	When     string     `json:"when"`
	Workload string     `json:"workload"`
	Parent   string     `json:"parent"`
	Change   string     `json:"change"`
	AA       bool       `json:"aa,omitempty"`
	Pairs    int        `json:"pairs"`
	Seeds    []int64    `json:"seeds"`
	Seconds  int        `json:"seconds"`
	CPUs     int        `json:"cpus"`
	Failed   [2]float64 `json:"failed_share"` // parent, change
	// Incorrect counts each side's runs that failed the benchmark's
	// own output check.
	Incorrect [2]int `json:"incorrect"`
	Metrics   []row  `json:"metrics"`
	// Readings are every reading of the runs' -json files, gated or
	// not, as each side's median: a record, with no verdict.
	Readings []readingRow `json:"readings"`
}

// readingRow is one reading's median on each side, over the runs that
// took it.
type readingRow struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Parent float64 `json:"parent"`
	Change float64 `json:"change"`
}

// side is one checkout's runs of one metric.
type side struct {
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// row is one gated metric's verdict.
type row struct {
	metricSpec
	Parent side    `json:"parent"`
	Change side    `json:"change"`
	Delta  float64 `json:"change_rel"` // (change - parent) / parent, medians
	Wins   int     `json:"wins"`       // pairs where the change's run was better
	Losses int     `json:"losses"`     // pairs where it was worse
	// Gap is the median gap in the better direction; the gap rule
	// holds when it exceeds the parent's interquartile range.
	Gap     float64 `json:"gap"`
	Verdict string  `json:"verdict"` // "gain", "loss" or "none"
	// OverBound: the change's median is worse than the parent's by
	// more than the metric's bound.
	OverBound bool `json:"over_bound"`
	// Spread: a side's IQR is wider than the bound allows, relative to
	// its median, so the pair cannot tell.
	Spread bool `json:"spread_over_bound"`
}

func summarize(xs []float64) side {
	b, _ := stats.Box(xs) // fails only on no runs; -pairs is at least 1
	return side{Q1: b.Q1, Median: b.Median, Q3: b.Q3, Values: xs}
}

// compare judges one metric over paired runs: parent[i] and change[i]
// ran on the same seed. A metric moved when its median gap clears the
// parent's IQR and the change won (or lost) at least claimShare of the
// pairs; anything less is reported as no change.
func compare(spec metricSpec, parent, change []float64) row {
	r := row{metricSpec: spec, Parent: summarize(parent), Change: summarize(change)}
	sign := 1.0 // + when the change is better
	if spec.Better == "lower" {
		sign = -1
	}
	for i := range parent {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			r.Wins++
		case d < 0:
			r.Losses++
		}
	}
	r.Gap = sign * (r.Change.Median - r.Parent.Median)
	if r.Parent.Median != 0 {
		r.Delta = (r.Change.Median - r.Parent.Median) / math.Abs(r.Parent.Median)
	}
	iqr := r.Parent.Q3 - r.Parent.Q1
	need := int(math.Ceil(claimShare * float64(len(parent))))
	r.Verdict = "none"
	switch {
	case r.Gap > iqr && r.Wins >= need:
		r.Verdict = "gain"
	case -r.Gap > iqr && r.Losses >= need:
		r.Verdict = "loss"
	}
	r.OverBound = -sign*r.Delta > spec.Bound
	r.Spread = relSpread(r.Parent) > spec.Bound || relSpread(r.Change) > spec.Bound
	return r
}

// medians summarizes every reading either side took, sorted by name.
func medians(parent, change []benchRun) []readingRow {
	units := map[string]string{}
	for _, runs := range [][]benchRun{parent, change} {
		for _, r := range runs {
			for name, v := range r.readings {
				units[name] = v.Unit
			}
		}
	}
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]readingRow, len(names))
	for i, name := range names {
		rows[i] = readingRow{Name: name, Unit: units[name], Parent: median(parent, name), Change: median(change, name)}
	}
	return rows
}

// median is the median of name over the runs that took it; 0 when
// none did.
func median(runs []benchRun, name string) float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.readings[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	b, _ := stats.Box(xs) // the zero box when xs is empty
	return b.Median
}

func relSpread(s side) float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// writeReport prints one line per gated metric.
func writeReport(w io.Writer, rec *record) {
	kind := "A/B"
	if rec.AA {
		kind = "A/A"
	}
	fmt.Fprintf(w, "== %s %s: parent %s, change %s, %d pairs, seeds %d..%d, %d s each, %d CPUs\n",
		kind, rec.Workload, short(rec.Parent), short(rec.Change), rec.Pairs, rec.Seeds[0], rec.Seeds[len(rec.Seeds)-1], rec.Seconds, rec.CPUs)
	fmt.Fprintf(w, "failed share: parent %.4f, change %.4f\n", rec.Failed[0], rec.Failed[1])
	fmt.Fprintf(w, "incorrect runs: parent %d, change %d\n", rec.Incorrect[0], rec.Incorrect[1])
	fmt.Fprintf(w, "%-24s %-30s %-30s %8s %6s %8s %-7s %s\n",
		"metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins", "gap/IQR", "verdict", "bound")
	for _, r := range rec.Metrics {
		bound := "ok"
		if r.OverBound {
			bound = "OVER"
		}
		if r.Spread {
			bound += " SPREAD"
		}
		fmt.Fprintf(w, "%-24s %-30s %-30s %+7.1f%% %3d/%-2d %8.2f %-7s %s (%.0f%%)\n",
			r.Name, box(r.Parent), box(r.Change), 100*r.Delta, r.Wins, len(r.Parent.Values),
			gapOverIQR(r), r.Verdict, bound, 100*r.Bound)
	}
	if len(rec.Readings) > 0 {
		fmt.Fprintf(w, "-- every reading, medians (ungated)\n%-40s %16s %16s %8s\n", "reading", "parent", "change", "change")
	}
	for _, r := range rec.Readings {
		rel := "-"
		if r.Parent != 0 {
			rel = fmt.Sprintf("%+7.1f%%", 100*(r.Change-r.Parent)/math.Abs(r.Parent))
		}
		fmt.Fprintf(w, "%-40s %16.4f %16.4f %8s %s\n", r.Name, r.Parent, r.Change, rel, r.Unit)
	}
}

// gapOverIQR is the median gap in units of the parent's IQR: beyond
// ±1 the gap rule holds.
func gapOverIQR(r row) float64 {
	if iqr := r.Parent.Q3 - r.Parent.Q1; iqr > 0 {
		return r.Gap / iqr
	}
	if r.Gap == 0 {
		return 0
	}
	return math.Copysign(math.Inf(1), r.Gap)
}

// short abbreviates a revision to 12 hex digits, keeping a "+dirty"
// mark.
func short(rev string) string {
	sha, mark, _ := strings.Cut(rev, "+")
	if len(sha) > 12 {
		sha = sha[:12]
	}
	if mark != "" {
		return sha + "+" + mark
	}
	return sha
}

func box(s side) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}
