package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	opsPerS = metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	p95     = metricSpec{Name: "latency_p95_ms", Better: "lower", Bound: 0.25}
)

// TestCompareVerdicts: a gain needs both the gap rule and nine wins in
// ten; identical or interleaved sides read as no change; a change worse
// past its bound is flagged however the pairs fall.
func TestCompareVerdicts(t *testing.T) {
	parent := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	for _, c := range []struct {
		name    string
		spec    metricSpec
		change  []float64
		verdict string
		over    bool
	}{
		{"same runs", opsPerS, parent, "none", false},
		{"clear gain", opsPerS, shift(parent, 15), "gain", false},
		{"clear gain, lower is better", p95, shift(parent, -15), "gain", false},
		{"clear loss inside the bound", opsPerS, shift(parent, -10), "loss", false},
		{"loss past the bound", p95, shift(parent, 40), "loss", true},
		// The median moves past the IQR but three pairs go the other way.
		{"gap without the wins", opsPerS, []float64{110, 110, 110, 110, 110, 110, 110, 90, 90, 90}, "none", false},
		// Every pair won, by less than the parent's IQR.
		{"wins without the gap", opsPerS, shift(parent, 1), "none", false},
	} {
		r := compare(c.spec, parent, c.change)
		if r.Verdict != c.verdict || r.OverBound != c.over {
			t.Errorf("%s: verdict %q over %v (gap %.2f, wins %d, losses %d), want %q over %v",
				c.name, r.Verdict, r.OverBound, r.Gap, r.Wins, r.Losses, c.verdict, c.over)
		}
	}
}

// TestCompareConstantMetric: a count that never varies has no IQR; a
// step in it is a move, and equal counts are not.
func TestCompareConstantMetric(t *testing.T) {
	allocs := metricSpec{Name: "allocs_per_op", Better: "lower", Bound: 0.05}
	same := []float64{16, 16, 16, 16}
	if r := compare(allocs, same, same); r.Verdict != "none" || r.OverBound || r.Spread {
		t.Fatalf("equal counts: %+v", r)
	}
	if r := compare(allocs, same, []float64{18, 18, 18, 18}); r.Verdict != "loss" || !r.OverBound {
		t.Fatalf("16 → 18: %+v", r)
	}
}

// TestAppendRecordKeepsHistory: each invocation adds one element to
// the file's JSON array and keeps the ones before it.
func TestAppendRecordKeepsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_relay-small.json")
	for i := 0; i < 3; i++ {
		rec := &record{Workload: "relay-small", Pairs: i + 1, Seeds: []int64{1}}
		rec.Metrics = []row{compare(opsPerS, []float64{1}, []float64{2})}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var all []record
	if err := json.Unmarshal(blob, &all); err != nil {
		t.Fatalf("not a JSON array: %v\n%s", err, blob)
	}
	if len(all) != 3 || all[0].Pairs != 1 || all[2].Pairs != 3 || all[2].Metrics[0].Change.Median != 2 {
		t.Fatalf("records %+v", all)
	}
	var out bytes.Buffer
	writeReport(&out, &all[2])
	if !strings.Contains(out.String(), "ops_per_s") {
		t.Fatalf("report lacks the metric:\n%s", out.String())
	}
}

// TestContractLinesAndReadings: the contract line is a run's last
// stdout line and its correct flag is counted per side; the -json
// file's metrics and extra blocks become one medians row per reading.
func TestContractLinesAndReadings(t *testing.T) {
	stdouts := []string{
		"warming up\n" + `{"correct":true,"attempted":10,"failed":0,"metrics":{"ops_per_s":{"value":100,"unit":"1/s"}}}` + "\n",
		`{"correct":false,"attempted":10,"failed":2,"metrics":{"ops_per_s":{"value":90,"unit":"1/s"}}}`,
		`{"correct":true,"attempted":10,"failed":0,"metrics":{"ops_per_s":{"value":110,"unit":"1/s"}}}`,
	}
	blobs := []string{
		`{"metrics":{"ops_per_s":{"value":100,"unit":"1/s"}},"extra":{"runtime.goroutines_leaked":{"value":0,"unit":"count","n":1}}}`,
		`{"metrics":{"ops_per_s":{"value":90,"unit":"1/s"}}}`,
		`{"metrics":{"ops_per_s":{"value":110,"unit":"1/s"}},"extra":{"runtime.goroutines_leaked":{"value":2,"unit":"count"}}}`,
	}
	var runs []benchRun
	for i := range stdouts {
		line, err := parseContract([]byte(stdouts[i]))
		if err != nil {
			t.Fatal(err)
		}
		readings, err := parseReadings([]byte(blobs[i]))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, benchRun{contractLine: line, readings: readings})
	}
	if _, err := parseContract([]byte("panic: no line\n")); err == nil {
		t.Error("a stdout without a contract line parsed")
	}
	parent, change := runs[:1], runs[1:]
	if got := [2]int{incorrect(parent), incorrect(change)}; got != [2]int{0, 1} {
		t.Fatalf("incorrect = %v, want [0 1]", got)
	}
	if got := values(change, "ops_per_s"); got[0] != 90 || got[1] != 110 {
		t.Fatalf("values = %v", got)
	}
	want := []readingRow{
		{Name: "ops_per_s", Unit: "1/s", Parent: 100, Change: 100},
		{Name: "runtime.goroutines_leaked", Unit: "count", Parent: 0, Change: 2},
	}
	rec := &record{Workload: "figures", Pairs: 1, Seeds: []int64{1}, Incorrect: [2]int{0, 1}, Readings: medians(parent, change)}
	if len(rec.Readings) != len(want) || rec.Readings[0] != want[0] || rec.Readings[1] != want[1] {
		t.Fatalf("readings %+v, want %+v", rec.Readings, want)
	}
	var out bytes.Buffer
	writeReport(&out, rec)
	for _, s := range []string{"incorrect runs: parent 0, change 1", "runtime.goroutines_leaked"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("report lacks %q:\n%s", s, out.String())
		}
	}
}
