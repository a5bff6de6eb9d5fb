package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"confbench/internal/bench"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// runSmall runs the bench at the smallest sizes the flags allow, with
// args on top, and returns its stdout and its -json report.
func runSmall(t *testing.T, args ...string) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	out, err := runCaptured(t, append([]string{"-trials", "1", "-images", "2", "-size", "5",
		"-scale-divisor", "8", "-seed", "7", "-json", path}, args...)...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	js, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out, js
}

// runFigure runs one -fig row at the smallest sizes.
func runFigure(t *testing.T, name string) (string, []byte) {
	t.Helper()
	return runSmall(t, "-fig", name)
}

// resultLists runs the bench like runSmall and returns the result lists
// of its -json report by key, without meta and without the attestation
// timings, which fold measured compute time in (see TestEveryFigureRuns).
func resultLists(t *testing.T, args ...string) map[string][]json.RawMessage {
	t.Helper()
	_, js := runSmall(t, args...)
	var lists map[string]json.RawMessage
	if err := json.Unmarshal(js, &lists); err != nil {
		t.Fatal(err)
	}
	out := map[string][]json.RawMessage{}
	for key, raw := range lists {
		if key == "meta" || key == "attestation" {
			continue
		}
		var list []json.RawMessage
		if err := json.Unmarshal(raw, &list); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		out[key] = list
	}
	return out
}

// sameLists fails the test unless got and want hold the same results.
func sameLists(t *testing.T, what string, got, want map[string][]json.RawMessage) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: result lists %d, want %d", what, len(got), len(want))
	}
	for key, w := range want {
		g := got[key]
		if len(g) != len(w) {
			t.Errorf("%s: %s holds %d results, want %d", what, key, len(g), len(w))
			continue
		}
		for i := range w {
			if !bytes.Equal(g[i], w[i]) {
				t.Errorf("%s: %s[%d] differs:\n got %.300s\nwant %.300s", what, key, i, g[i], w[i])
			}
		}
	}
}

// TestRowsMatchTheirSliceOfAll: a row's numbers belong to the row, not
// to the run around it. Every row of all, run alone, writes the same
// results as its slice of all, and all writes the same at -workers 4.
// Two trials give every body more than one key to be priced under.
func TestRowsMatchTheirSliceOfAll(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a deployment per row")
	}
	rows, err := lookupFigures("all")
	if err != nil {
		t.Fatal(err)
	}
	whole := resultLists(t, "-fig", "all", "-trials", "2")
	alone := map[string][]json.RawMessage{}
	for _, f := range rows {
		for key, list := range resultLists(t, "-fig", f.name, "-trials", "2") {
			alone[key] = append(alone[key], list...)
		}
	}
	sameLists(t, "rows run alone", alone, whole)
	sameLists(t, "-workers 4", resultLists(t, "-fig", "all", "-trials", "2", "-workers", "4"), whole)
}

// TestReportGolden pins the printed report of all, digit for digit, at
// the smallest sizes with three trials per point. The Fig. 5 block is
// cut out: the attestation timings fold measured compute time in (see
// TestEveryFigureRuns). Regenerate with -update after a change that is
// meant to move a number.
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a deployment")
	}
	out, _ := runSmall(t, "-fig", "all", "-trials", "3")
	i := strings.Index(out, "Fig. 5 —")
	if i < 0 {
		t.Fatalf("no Fig. 5 block in:\n%s", out)
	}
	out = out[:i] + out[i+strings.Index(out[i:], "\n\n")+2:]
	golden(t, "report.golden", out)
}

// TestStorageGolden pins the printed report of -fig storage at -quick,
// which all leaves out: both suites' usage on every platform, priced.
func TestStorageGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a deployment")
	}
	out, err := runCaptured(t, "-quick", "-seed", "1", "-fig", "storage")
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "storage.golden", out)
}

// golden compares out with testdata/name line by line, or rewrites the
// file under -update.
func golden(t *testing.T, name, out string) {
	t.Helper()
	file := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	got, wl := strings.Split(out, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(wl); i++ {
		if got[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got %s\nwant %s", file, i+1, got[i], wl[i])
		}
	}
	if len(got) != len(wl) {
		t.Fatalf("%s: got %d lines, want %d", file, len(got), len(wl))
	}
}

// samples collects a report's priced numbers: those under secure_* and
// normal_* fields into secure and normal, and colocation's secure-only
// mean_ms into secure.
func samples(v any, secure, normal *[]float64) {
	switch v := v.(type) {
	case []any:
		for _, e := range v {
			samples(e, secure, normal)
		}
	case map[string]any:
		for key, e := range v {
			switch {
			case strings.HasPrefix(key, "secure_") || key == "mean_ms":
				numbers(e, secure)
			case strings.HasPrefix(key, "normal_"):
				numbers(e, normal)
			default:
				samples(e, secure, normal)
			}
		}
	}
}

// numbers appends every number in v to into.
func numbers(v any, into *[]float64) {
	switch v := v.(type) {
	case []any:
		for _, e := range v {
			numbers(e, into)
		}
	case float64:
		*into = append(*into, v)
	}
}

// TestSeedMovesEverySample: every row's secure and normal samples move
// with -seed, so no guest prices from a stream the seed does not reach,
// and the firmware row's two TDX sides draw from two streams: one
// stream would give every trial the same secure/normal ratio.
func TestSeedMovesEverySample(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a deployment per row")
	}
	for _, f := range figures {
		if f.name == "trace" {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			var side [2][2][]float64 // [seed][secure, normal]
			var reports [2]*bench.Report
			for i, seed := range []string{"1", "2"} {
				_, js := runSmall(t, "-fig", f.name, "-seed", seed, "-trials", "3")
				var v any
				if err := json.Unmarshal(js, &v); err != nil {
					t.Fatal(err)
				}
				samples(v, &side[i][0], &side[i][1])
				var err error
				if reports[i], err = bench.ReadReport(bytes.NewReader(js)); err != nil {
					t.Fatal(err)
				}
			}
			for j, name := range []string{"secure", "normal"} {
				one, two := side[0][j], side[1][j]
				if len(one) != len(two) {
					t.Fatalf("%s: %d samples at seed 1, %d at seed 2", name, len(one), len(two))
				}
				moved := 0
				for i := range one {
					if one[i] != two[i] {
						moved++
					}
				}
				// Equal nanoseconds by chance happen, on tiny totals.
				if len(one) > 0 && 2*moved < len(one) {
					t.Errorf("%s: %d of %d samples moved with the seed", name, moved, len(one))
				}
			}
			if f.name != "firmware" {
				return
			}
			c := reports[0].Firmware[0].Cells[0][0]
			lo, hi := math.Inf(1), 0.0
			for i := range c.SecureMs {
				r := c.SecureMs[i] / c.NormalMs[i]
				lo, hi = math.Min(lo, r), math.Max(hi, r)
			}
			if hi < lo*(1+1e-4) {
				t.Errorf("firmware: every trial has the ratio %.6f: the two TDX sides share a noise stream", lo)
			}
		})
	}
}

// TestEveryFigureRuns drives every row but trace (span trees, not a
// figure) end to end. -fig 8 writes its one grid to -json. firmware and
// containers print and write the same bytes on a same-seed rerun; 5 and
// collateral cannot, since the attestation timings still fold measured
// compute time into the priced total.
func TestEveryFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a deployment per row")
	}
	for _, f := range figures {
		if f.name == "trace" {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			out, js := runFigure(t, f.name)
			r, err := bench.ReadReport(bytes.NewReader(js))
			if err != nil {
				t.Fatal(err)
			}
			fig8 := []string{"cpustress", "memstress", "iostress", "logging", "factors", "filesystem"}
			if f.name == "8" && (len(r.FaaS) != 1 || !slices.Equal(r.FaaS[0].Workloads, fig8)) {
				t.Errorf("-json of -fig 8 holds %d grids, want one over %v:\n%s", len(r.FaaS), fig8, js)
			}
			if f.name == "firmware" || f.name == "containers" {
				if again, againJS := runFigure(t, f.name); again != out || !bytes.Equal(againJS, js) {
					t.Errorf("same-seed reruns of -fig %s differ", f.name)
				}
			}
		})
	}
}
