package tee_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"confbench/internal/faas"
	"confbench/internal/faas/langs"
	"confbench/internal/meter"
	"confbench/internal/obs"
	"confbench/internal/perfmon"
	"confbench/internal/tee"
	"confbench/internal/tee/cca"
	"confbench/internal/tee/sev"
	"confbench/internal/tee/tdx"
	"confbench/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// chargesSeed seeds every backend and guest of the charges golden.
const chargesSeed = 7

// goldenBackends returns the three platforms at chargesSeed.
func goldenBackends(t *testing.T) []tee.Backend {
	t.Helper()
	tb, err := tdx.NewBackend(tdx.Options{Seed: chargesSeed, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sev.NewBackend(sev.Options{Seed: chargesSeed, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := cca.NewBackend(cca.Options{Seed: chargesSeed, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	return []tee.Backend{tb, sb, cb}
}

// TestChargesGolden is what "same prices" means for a pricing change:
// every catalog workload in every runtime at scale 1 (2 where a
// workload refuses 1), its amplified run
// usage and its bootstrap usage priced on each platform's secure and
// normal guest under the key (workload, runtime, scale), each line the
// charge's Total and Exits and the monitor's Stats, compared byte for
// byte. The noise-free columns were recorded while meter.Usage and
// cpumodel.Breakdown were still maps; total, wall and cycles carry the
// jitter and were regenerated when it became a function of the guest's
// noise stream and the key.
func TestChargesGolden(t *testing.T) {
	catalog := workloads.Default()
	var got bytes.Buffer
	for _, b := range goldenBackends(t) {
		cfg := tee.GuestConfig{Name: "golden", MemoryMB: 8}
		secure, err := b.Launch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		normal, err := b.LaunchNormal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		launchers, err := langs.NewAllLaunchers(b.Kind(), catalog)
		if err != nil {
			t.Fatal(err)
		}
		host, monitor := b.HostProfile(), perfmon.Select(b.Kind())
		for _, name := range catalog.Names() {
			for _, lang := range langs.Names() {
				fn := faas.Function{Name: name, Language: lang, Workload: name}
				scale := 1
				lr, err := launchers[lang].Launch(context.Background(), fn, scale)
				if err != nil { // collatz and primes refuse 1
					scale = 2
					lr, err = launchers[lang].Launch(context.Background(), fn, scale)
				}
				if err != nil {
					t.Fatalf("%s %s/%s: %v", b.Kind(), name, lang, err)
				}
				key := tee.NewKey(name).Name(lang).Num(uint64(scale))
				for _, g := range []tee.Guest{secure, normal} {
					for _, part := range []struct {
						name string
						u    meter.Usage
						key  tee.Key
					}{{"run", lr.RunUsage, key}, {"boot", lr.BootstrapUsage, key.Name("bootstrap")}} {
						c := g.Price(part.u, host.Cost(part.u), part.key)
						s := monitor.Collect(part.u, c, host)
						fmt.Fprintf(&got, "%s %s %s %d secure=%t %s total=%d exits=%d wall=%d instr=%d cycles=%d refs=%d misses=%d cs=%d pf=%d teeexits=%d monitor=%s\n",
							b.Kind(), name, lang, scale, g.Secure(), part.name, c.Total, c.Exits,
							s.Wall, s.Instructions, s.Cycles, s.CacheRefs, s.CacheMisses,
							s.ContextSwitches, s.PageFaults, s.TEEExits, s.Monitor)
					}
				}
			}
		}
		if err := secure.Destroy(); err != nil {
			t.Fatal(err)
		}
		if err := normal.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	compareGolden(t, filepath.Join("testdata", "charges.golden"), got.Bytes())
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
