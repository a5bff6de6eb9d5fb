package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricTablesAreWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for _, specs := range [][]metricSpec{endToEndSpecs, perLayerSpecs} {
		for _, s := range specs {
			if !nameRE.MatchString(s.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", s.Name)
			}
			if !unitRE.MatchString(s.Unit) {
				t.Errorf("metric %s: unit %q", s.Name, s.Unit)
			}
			if s.Better != "lower" && s.Better != "higher" {
				t.Errorf("metric %s: better=%q", s.Name, s.Better)
			}
			if seen[s.Name] {
				t.Errorf("metric %s declared twice", s.Name)
			}
			seen[s.Name] = true
		}
	}
	for _, s := range endToEndSpecs {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if len(perLayerSpecs) > 128 || len(endToEndSpecs) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEndSpecs), len(perLayerSpecs))
	}
	for _, w := range workloadSpecs {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
}

// BENCHMARK.json is generated from the tables (`-manifest`); a metric
// added to one and not the other would make the driver refuse runs.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, want.Bytes()) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run -C benchmark . -manifest > BENCHMARK.json`")
	}
}

func TestContractLineRoundTrips(t *testing.T) {
	res := &runResult{Workload: wlRelaySmall, Correct: true, Attempted: 10, Metrics: metricSet{}}
	res.Metrics.set(endToEndSpecs, "setup_s", 0.25, 3)
	if err := res.complete(endToEndSpecs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.writeContractLine(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("contract line is not one line: %q", buf.String())
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("contract line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var back contractLine
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !back.Correct || back.Attempted != 10 || back.Failed != 0 || len(back.Metrics) != len(endToEndSpecs) {
		t.Errorf("round trip lost fields: %+v", back)
	}
	for name, v := range back.Metrics {
		if !nameRE.MatchString(name) || !unitRE.MatchString(v.Unit) {
			t.Errorf("metric %q (unit %q) does not match the contract's charset", name, v.Unit)
		}
	}
	if back.Metrics["setup_s"].Value != 0.25 || back.Metrics["setup_s"].Unit != "s" {
		t.Errorf("setup_s came back as %+v", back.Metrics["setup_s"])
	}

	res.Metrics.set(endToEndSpecs, "ops_per_s", math.NaN(), 0)
	if err := res.complete(endToEndSpecs); err == nil {
		t.Error("a NaN metric was accepted; JSON cannot carry it")
	}
}
