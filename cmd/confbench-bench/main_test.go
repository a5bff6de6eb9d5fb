package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"confbench/internal/bench"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// runFigure runs one -fig row at the smallest sizes the flags allow and
// returns its stdout and its -json report.
func runFigure(t *testing.T, name string) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	out, err := runCaptured(t, "-fig", name, "-trials", "1", "-images", "2", "-size", "5",
		"-scale-divisor", "8", "-seed", "7", "-json", path)
	if err != nil {
		t.Fatalf("-fig %s: %v", name, err)
	}
	js, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out, js
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
