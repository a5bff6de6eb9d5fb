package tee_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"confbench/internal/obs"
	"confbench/internal/tee"
	"confbench/internal/tee/cca"
	"confbench/internal/tee/sev"
	"confbench/internal/tee/tdx"
)

// backend is what every confidential platform offers: the shared
// lifecycle behind tee.Backend, tee.Snapshotter and tee.Migrator.
type backend interface {
	tee.Backend
	tee.Snapshotter
	tee.Migrator
}

// platform is one row of the lifecycle conformance table.
type platform struct {
	kind tee.Kind
	new  func(t *testing.T, reg *obs.Registry) backend
	// attested returns the measurement guest g proves to a verifier.
	attested func(t *testing.T, b backend, g tee.Guest) []byte
	// coldEqual reports whether an identically-configured cold launch
	// reproduces a template's measurement.
	coldEqual bool
	// held counts what the first maxContexts contexts of b still hold on
	// the platform: TDs in the module's table, RMP pages assigned to
	// any ASID, realms plus granules in the realm world.
	held func(b backend) int
}

// maxContexts bounds the contexts (TD ids, ASIDs, realm ids — all
// count up from 1) a conformance test creates per backend.
const maxContexts = 64

func report(t *testing.T, g tee.Guest) []byte {
	t.Helper()
	raw, err := g.AttestationReport(context.Background(), []byte("nonce"))
	if err != nil {
		t.Fatalf("attestation report: %v", err)
	}
	return raw
}

var platforms = []platform{
	{
		kind: tee.KindTDX,
		new: func(t *testing.T, reg *obs.Registry) backend {
			b, err := tdx.NewBackend(tdx.Options{Seed: 7, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		attested: func(t *testing.T, _ backend, g tee.Guest) []byte {
			rep, err := tdx.UnmarshalReport(report(t, g))
			if err != nil {
				t.Fatal(err)
			}
			return rep.MRTD[:]
		},
		coldEqual: true,
		held: func(b backend) int {
			var n int
			for id := uint64(1); id <= maxContexts; id++ {
				if _, err := b.(*tdx.Backend).Module().TDHExportMem(id); err == nil {
					n++
				}
			}
			return n
		},
	},
	{
		kind: tee.KindSEV,
		new: func(t *testing.T, reg *obs.Registry) backend {
			b, err := sev.NewBackend(sev.Options{Seed: 11, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		attested: func(t *testing.T, _ backend, g tee.Guest) []byte {
			rep, err := sev.UnmarshalReport(report(t, g))
			if err != nil {
				t.Fatal(err)
			}
			return rep.Measurement[:]
		},
		coldEqual: true,
		held: func(b backend) int {
			var n int
			for asid := uint32(1); asid <= maxContexts; asid++ {
				n += b.(*sev.Backend).ReverseMap().AssignedPages(asid)
			}
			return n
		},
	},
	{
		kind: tee.KindCCA,
		new: func(t *testing.T, reg *obs.Registry) backend {
			b, err := cca.NewBackend(cca.Options{Seed: 9, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		// The FVP cannot attest (§IV-B), so what a realm proves is the RIM
		// read back through RSI_MEASUREMENT_READ — what the migration
		// gate checks.
		attested: func(t *testing.T, b backend, g tee.Guest) []byte {
			if _, err := g.AttestationReport(context.Background(), []byte("n")); !errors.Is(err, tee.ErrNoAttestation) {
				t.Errorf("realm attestation: %v, want ErrNoAttestation", err)
			}
			img, err := b.ExportLive(g)
			if err != nil {
				t.Fatalf("read back RIM: %v", err)
			}
			return img.Measurement
		},
		// RMI_DATA_CREATE extends the RIM over host granule addresses,
		// which every measured build allocates afresh: a cold launch never
		// reproduces a template's RIM. Reusing the image is exactly what
		// keeps a realm's measurement stable.
		coldEqual: false,
		held: func(b backend) int {
			rmm := b.(*cca.Backend).Monitor()
			n := rmm.DelegatedGranules()
			for id := uint64(1); id <= maxContexts; id++ {
				if _, err := rmm.RealmByID(id); err == nil {
					n++
				}
			}
			return n
		},
	},
}

// forEachPlatform runs fn as one subtest per row, against a fresh
// backend reporting to its own registry.
func forEachPlatform(t *testing.T, fn func(t *testing.T, p platform, b backend, reg *obs.Registry)) {
	for _, p := range platforms {
		t.Run(string(p.kind), func(t *testing.T) {
			reg := obs.New()
			fn(t, p, p.new(t, reg), reg)
		})
	}
}

var guestCfg = tee.GuestConfig{Name: "runtime", MemoryMB: 8}

func restores(reg *obs.Registry, k tee.Kind) uint64 {
	return reg.Counter("confbench_tee_guest_restores_total", "tee", string(k)).Value()
}

func TestLifecycleSnapshotRestore(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p platform, b backend, reg *obs.Registry) {
		img, err := b.Snapshot(guestCfg)
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if img.Kind != p.kind || img.MemoryMB != 8 || img.SizeBytes != 8<<20 {
			t.Fatalf("image identity: kind=%s mem=%d size=%d", img.Kind, img.MemoryMB, img.SizeBytes)
		}
		if len(img.Measurement) != tee.MeasurementSize {
			t.Fatalf("image measurement is %d bytes", len(img.Measurement))
		}
		if n := p.held(b); n != 0 {
			t.Fatalf("template still holds %d platform resources after snapshot", n)
		}

		cold, err := b.Launch(guestCfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cold.Destroy()
		warm, err := b.Restore(img, guestCfg)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		defer warm.Destroy()

		if got := warm.BootCost(); got != img.RestoreCost {
			t.Errorf("warm boot = %v, want restore cost %v", got, img.RestoreCost)
		}
		if cold.BootCost() < 3*warm.BootCost() {
			t.Errorf("cold boot %v not >= 3x warm boot %v", cold.BootCost(), warm.BootCost())
		}
		if got := restores(reg, p.kind); got != 1 {
			t.Errorf("restores counter = %d, want 1", got)
		}
		if got := reg.Counter("confbench_tee_guest_launches_total", "tee", string(p.kind)).Value(); got != 1 {
			t.Errorf("launches counter = %d, want 1 (the template is not a guest)", got)
		}

		got := p.attested(t, b, warm)
		if !bytes.Equal(got, img.Measurement) {
			t.Error("restored guest attests a different measurement than the image")
		}
		if eq := bytes.Equal(p.attested(t, b, cold), got); eq != p.coldEqual {
			t.Errorf("cold launch reproduces the template measurement = %v, want %v", eq, p.coldEqual)
		}
	})
}

func TestLifecycleExportImportRoundTrip(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p platform, b backend, reg *obs.Registry) {
		src, err := b.Launch(guestCfg)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Destroy()
		first, err := b.ExportLive(src)
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		if first.Kind != p.kind || first.MemoryMB != 8 {
			t.Fatalf("image identity: kind=%s mem=%d", first.Kind, first.MemoryMB)
		}
		if !bytes.Equal(first.Measurement, p.attested(t, b, src)) {
			t.Error("exported measurement differs from what the source attests")
		}

		dst, err := b.ImportLive(first, guestCfg)
		if err != nil {
			t.Fatalf("import: %v", err)
		}
		defer dst.Destroy()
		if got := dst.BootCost(); got != first.ResumeCost {
			t.Errorf("imported boot = %v, want resume cost %v", got, first.ResumeCost)
		}
		if got := restores(reg, p.kind); got != 1 {
			t.Errorf("restores counter = %d, want 1", got)
		}
		second, err := b.ExportLive(dst)
		if err != nil {
			t.Fatalf("re-export: %v", err)
		}
		if !bytes.Equal(second.Measurement, first.Measurement) {
			t.Error("re-exported measurement differs")
		}
		if !bytes.Equal(second.State, first.State) {
			t.Errorf("re-exported state differs:\n%s\n%s", first.State, second.State)
		}
		// Exporting did not stop the source.
		if _, err := b.ExportLive(src); err != nil {
			t.Errorf("source no longer exportable: %v", err)
		}
	})
}

func TestLifecycleDestroy(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p platform, b backend, _ *obs.Registry) {
		img, err := b.Snapshot(guestCfg)
		if err != nil {
			t.Fatal(err)
		}
		launched, err := b.Launch(guestCfg)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := b.Restore(img, guestCfg)
		if err != nil {
			t.Fatal(err)
		}
		if p.held(b) == 0 {
			t.Fatal("live guests hold nothing on the platform")
		}
		for _, g := range []tee.Guest{launched, restored} {
			if err := g.Destroy(); err != nil {
				t.Fatalf("destroy %s: %v", g.ID(), err)
			}
			if err := g.Destroy(); err != nil {
				t.Errorf("second destroy %s: %v", g.ID(), err)
			}
			if _, err := b.ExportLive(g); !errors.Is(err, tee.ErrNotLive) {
				t.Errorf("export of destroyed %s: %v, want ErrNotLive", g.ID(), err)
			}
		}
		if n := p.held(b); n != 0 {
			t.Errorf("platform still holds %d resources after destroy", n)
		}
		// Guests this backend never launched are not live on it either.
		if _, err := b.ExportLive(nil); !errors.Is(err, tee.ErrNotLive) {
			t.Errorf("nil guest export: %v", err)
		}
		normal, err := b.LaunchNormal(guestCfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.ExportLive(normal); !errors.Is(err, tee.ErrNotLive) {
			t.Errorf("normal guest export: %v", err)
		}
	})
}

// TestLifecycleRefusesBadImages feeds Restore and ImportLive — one
// import underneath — the images a hostile source or a confused cache
// could hand them. Nothing may be left on the platform afterwards.
func TestLifecycleRefusesBadImages(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p platform, b backend, _ *obs.Registry) {
		good, err := b.Snapshot(guestCfg)
		if err != nil {
			t.Fatal(err)
		}
		foreign := tee.KindSEV
		if p.kind == tee.KindSEV {
			foreign = tee.KindCCA
		}
		overBound := map[tee.Kind]string{
			tee.KindTDX: `{"pages":[` + strings.Repeat("0,", tee.MaxImagePages) + `0]}`,
			tee.KindSEV: `{"policy":196608,"pages":1048577}`,
			tee.KindCCA: `{"rpv":"","pages":1048577}`,
		}
		cases := []struct {
			name        string
			kind        tee.Kind
			measurement []byte
			state       string
			want        error
		}{
			{"wrong kind", foreign, good.Measurement, string(good.State), tee.ErrImageKind},
			{"short measurement", p.kind, good.Measurement[:16], string(good.State), tee.ErrMeasurementSize},
			{"no measurement", p.kind, nil, string(good.State), tee.ErrMeasurementSize},
			{"empty state", p.kind, good.Measurement, "", tee.ErrBadMigrationState},
			{"undecodable state", p.kind, good.Measurement, "{not json", tee.ErrBadMigrationState},
			{"mistyped page count", p.kind, good.Measurement, `{"pages":"eight"}`, tee.ErrBadMigrationState},
			{"negative page count", p.kind, good.Measurement, `{"pages":-1}`, tee.ErrBadMigrationState},
			{"over-bound page count", p.kind, good.Measurement, overBound[p.kind], tee.ErrBadMigrationState},
			// What TDH.MEM.PAGE.ADD refuses, TDH.IMPORT.MEM must not let in
			// (SEV and CCA count pages, so a page list does not decode).
			{"duplicate page", p.kind, good.Measurement, `{"pages":[0,1,1]}`, tee.ErrBadMigrationState},
			{"pages out of order", p.kind, good.Measurement, `{"pages":[1,0]}`, tee.ErrBadMigrationState},
			{"page beyond the GPA space", p.kind, good.Measurement, `{"pages":[0,1099511627776]}`, tee.ErrBadMigrationState},
		}
		for _, tc := range cases {
			gi := &tee.GuestImage{Kind: tc.kind, MemoryMB: 8, RestoreCost: good.RestoreCost,
				Measurement: tc.measurement, State: []byte(tc.state)}
			if g, err := b.Restore(gi, guestCfg); !errors.Is(err, tc.want) {
				t.Errorf("restore %s: %v, want %v", tc.name, err, tc.want)
				destroy(g)
			}
			mi := &tee.MigrationImage{Kind: tc.kind, MemoryMB: 8, ResumeCost: good.RestoreCost,
				Measurement: tc.measurement, State: []byte(tc.state)}
			if g, err := b.ImportLive(mi, guestCfg); !errors.Is(err, tc.want) {
				t.Errorf("import %s: %v, want %v", tc.name, err, tc.want)
				destroy(g)
			}
		}
		if _, err := b.Restore(nil, guestCfg); !errors.Is(err, tee.ErrNilImage) {
			t.Errorf("restore nil image: %v", err)
		}
		if _, err := b.ImportLive(nil, guestCfg); !errors.Is(err, tee.ErrNilImage) {
			t.Errorf("import nil image: %v", err)
		}
		if n := p.held(b); n != 0 {
			t.Errorf("refused images left %d resources on the platform", n)
		}
	})
}

func destroy(g tee.Guest) {
	if g != nil {
		_ = g.Destroy()
	}
}

// TestLifecycleConcurrent drives what a draining warm pool drives —
// restores and destroys on the refill goroutine, launches and exports
// beside them — and expects no live guest and an empty platform at the
// end.
func TestLifecycleConcurrent(t *testing.T) {
	forEachPlatform(t, func(t *testing.T, p platform, b backend, _ *obs.Registry) {
		cfg := tee.GuestConfig{Name: "runtime", MemoryMB: 2}
		img, err := b.Snapshot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// One context for the template plus two per round and worker.
		const workers, rounds = 4, 6
		var (
			wg     sync.WaitGroup
			mu     sync.Mutex
			guests []tee.Guest
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					cold, err := b.Launch(cfg)
					if err != nil {
						t.Errorf("launch: %v", err)
						return
					}
					warm, err := b.Restore(img, cfg)
					if err != nil {
						t.Errorf("restore: %v", err)
						_ = cold.Destroy()
						return
					}
					mu.Lock()
					guests = append(guests, cold, warm)
					mu.Unlock()
					var exports sync.WaitGroup
					for _, g := range []tee.Guest{cold, warm, warm} {
						exports.Add(1)
						go func() {
							defer exports.Done()
							// Racing the destroy below: live or not, never torn.
							if mi, err := b.ExportLive(g); err == nil && len(mi.Measurement) != tee.MeasurementSize {
								t.Errorf("torn export of %s", g.ID())
							}
						}()
					}
					if err := warm.Destroy(); err != nil {
						t.Errorf("destroy: %v", err)
					}
					exports.Wait()
					if _, err := b.ExportLive(cold); err != nil {
						t.Errorf("export of live guest: %v", err)
					}
					if err := cold.Destroy(); err != nil {
						t.Errorf("destroy: %v", err)
					}
				}
			}()
		}
		wg.Wait()
		for _, g := range guests {
			if _, err := b.ExportLive(g); !errors.Is(err, tee.ErrNotLive) {
				t.Errorf("%s still live: %v", g.ID(), err)
			}
		}
		if n := p.held(b); n != 0 {
			t.Errorf("platform still holds %d resources", n)
		}
	})
}
