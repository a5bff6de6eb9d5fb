package workloads

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"confbench/internal/meter"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// guestMixScale is the scale the benchmark's guest-mix workload runs a
// catalog entry at; the allocation ceilings and Go benchmarks use it.
func guestMixScale(w Workload) int { return max(1, w.DefaultScale/4) }

// goldenScales lists the scales the identity golden pins for w.
func goldenScales(w Workload) []int {
	var out []int
	for _, s := range []int{1, 2, w.DefaultScale / 8, w.DefaultScale / 4, w.DefaultScale} {
		if s >= 1 && !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out
}

// TestCatalogGolden is what "same numbers" means for a body
// optimisation: the output and the metered usage of every workload at
// five scales, recorded before the first one (ISSUE 24) and compared
// byte for byte. A scale a workload rejects pins its error text.
func TestCatalogGolden(t *testing.T) {
	r := Default()
	var got bytes.Buffer
	for _, name := range r.Names() {
		w, _ := r.Lookup(name)
		for _, scale := range goldenScales(w) {
			m := meter.NewContext()
			out, err := w.Run(m, scale)
			if err != nil {
				out = "error: " + err.Error()
			}
			fmt.Fprintf(&got, "%s %d %q [%s]\n", name, scale, out, m.Snapshot())
		}
	}
	compareGolden(t, filepath.Join("testdata", "catalog.golden"), got.Bytes())
}

func compareGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d differs:\n got %s\nwant %s", file, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", file, len(gl), len(wl))
}
