package bench

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"confbench/internal/tee"
	"confbench/internal/tee/cca"
	"confbench/internal/tee/sev"
	"confbench/internal/tee/tdx"
	"confbench/internal/vm"
)

func pairFor(t *testing.T, kind tee.Kind) vm.Pair {
	t.Helper()
	var backend tee.Backend
	var err error
	switch kind {
	case tee.KindTDX:
		backend, err = tdx.NewBackend(tdx.Options{Seed: 41})
	case tee.KindSEV:
		backend, err = sev.NewBackend(sev.Options{Seed: 42})
	case tee.KindCCA:
		backend, err = cca.NewBackend(cca.Options{Seed: 43})
	}
	if err != nil {
		t.Fatal(err)
	}
	return pairOn(t, backend)
}

// pairOn launches a secure/normal pair on backend, stopped when the
// test ends.
func pairOn(t *testing.T, backend tee.Backend) vm.Pair {
	t.Helper()
	pair, err := vm.NewPair(backend, tee.GuestConfig{MemoryMB: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pair.Stop() })
	return pair
}

func TestDBMSStorageShape(t *testing.T) {
	dir := t.TempDir()
	res, err := DBMSStorage(context.Background(), pairFor(t, tee.KindTDX), DBMSStorageOptions{Size: 10, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// The durable cell charges the log's physical footprint (framing,
	// checksums, superseded versions) where the memory cell charges
	// logical dirty pages, plus a fsync pair per commit point.
	if res.Durable.WriteBytes <= res.Memory.WriteBytes {
		t.Errorf("durable writes %d <= memory writes %d; want amplification",
			res.Durable.WriteBytes, res.Memory.WriteBytes)
	}
	if res.WriteAmplification <= 1 {
		t.Errorf("write amplification = %.2f, want > 1", res.WriteAmplification)
	}
	if res.Durable.Syscalls <= res.Memory.Syscalls {
		t.Errorf("durable syscalls %d <= memory syscalls %d; want per-commit fsyncs",
			res.Durable.Syscalls, res.Memory.Syscalls)
	}
	if res.DurableOverhead < 1 {
		t.Errorf("durable overhead = %.2f, want >= 1", res.DurableOverhead)
	}
	// The suite ends with DROP TABLEs, so the live set is empty; the
	// log itself must still exist.
	if res.Segments < 1 {
		t.Errorf("log stats = %d segments; want >= 1", res.Segments)
	}
	if res.LiveBytes != 0 {
		t.Errorf("live bytes = %d after the suite's DROP TABLEs, want 0", res.LiveBytes)
	}
	// An explicit Dir keeps the log on disk for inspection.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Errorf("durable dir empty after run (err=%v)", err)
	}
	out := RenderDBMSStorage([]DBMSStorageResult{res})
	if !strings.Contains(out, "write amplification") || !strings.Contains(out, "durable") {
		t.Errorf("render missing storage cells:\n%s", out)
	}
}

func TestCoLocation(t *testing.T) {
	backend, err := tdx.NewBackend(tdx.Options{Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CoLocation(context.Background(), backend, nil, CoLocationOptions{Tenants: 3, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].VsSingle != 1 {
		t.Errorf("first point vs-single = %v", res.Points[0].VsSingle)
	}
	// Interference must grow with tenant count.
	if res.Points[2].MeanMs <= res.Points[0].MeanMs {
		t.Error("no interference growth with co-location")
	}
	if RenderCoLocation(res) == "" {
		t.Error("empty render")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Trials != 10 || o.ScaleDivisor != 1 {
		t.Errorf("defaults = %+v", o)
	}
}

// TestReportJSONRoundTrip: meta survives a round trip and broken JSON is
// refused. TestShapes judges its rows on round-tripped reports, which
// covers the results themselves.
func TestReportJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Report{Meta: map[string]any{"trials": 3.0}}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Meta["trials"] != 3.0 {
		t.Errorf("meta lost: %v", out.Meta)
	}
	if _, err := ReadReport(bytes.NewBufferString("{broken")); err == nil {
		t.Error("broken JSON accepted")
	}
}
