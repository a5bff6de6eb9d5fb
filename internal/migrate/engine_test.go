package migrate

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"confbench/internal/attest"
	"confbench/internal/cberr"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/tee"
	"confbench/internal/tee/cca"
	"confbench/internal/tee/sev"
	"confbench/internal/tee/tdx"
)

// liveBackend is the slice of tee.Backend the engine needs plus the
// Migrator side, for table-driven tests across all three platforms.
type liveBackend interface {
	tee.Migrator
	Launch(cfg tee.GuestConfig) (tee.Guest, error)
}

func backendFor(t *testing.T, kind tee.Kind, seed int64) liveBackend {
	t.Helper()
	switch kind {
	case tee.KindTDX:
		b, err := tdx.NewBackend(tdx.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return b
	case tee.KindSEV:
		b, err := sev.NewBackend(sev.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return b
	case tee.KindCCA:
		b, err := cca.NewBackend(cca.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return b
	default:
		t.Fatalf("unknown kind %s", kind)
		return nil
	}
}

var allKinds = []tee.Kind{tee.KindTDX, tee.KindSEV, tee.KindCCA}

func guestCfg() tee.GuestConfig {
	return tee.GuestConfig{Name: "mig", MemoryMB: 8}
}

// destroyed reports whether a guest has been destroyed, via the
// ModelGuest accessor every backend hands out.
func destroyed(t *testing.T, g tee.Guest) bool {
	t.Helper()
	mg, ok := g.(interface{ Destroyed() bool })
	if !ok {
		t.Fatalf("guest %T has no Destroyed accessor", g)
	}
	return mg.Destroyed()
}

// TestMigratePreservesMeasurement is the migrate→resume property: for
// every TEE kind, the migrated guest's re-derived launch measurement
// is bit-for-bit the source's, and a successful migration leaves
// exactly one live copy (destination serving, source destroyed).
func TestMigratePreservesMeasurement(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(string(kind), func(t *testing.T) {
			b := backendFor(t, kind, 21)
			g, err := b.Launch(guestCfg())
			if err != nil {
				t.Fatal(err)
			}
			before, err := b.ExportLive(g)
			if err != nil {
				t.Fatal(err)
			}
			if len(before.Measurement) != tee.MeasurementSize {
				t.Fatalf("measurement %d bytes, want %d", len(before.Measurement), tee.MeasurementSize)
			}

			eng := NewEngine(Config{Obs: obs.New()})
			res, err := eng.Migrate(Spec{
				Guest: g, Source: b, Dest: b, DestConfig: guestCfg(),
				SourceHost: "host-a", DestHost: "host-b",
			})
			if err != nil {
				t.Fatalf("migrate: %v", err)
			}
			if res.Outcome != OutcomeMigrated {
				t.Fatalf("outcome %s", res.Outcome)
			}
			if !destroyed(t, g) {
				t.Error("source guest still live after cutover")
			}
			if destroyed(t, res.Guest) {
				t.Error("migrated guest not live")
			}
			if res.Verdict == nil || !res.Verdict.OK {
				t.Fatalf("verdict %+v", res.Verdict)
			}
			after, err := b.ExportLive(res.Guest)
			if err != nil {
				t.Fatalf("re-export migrated guest: %v", err)
			}
			if !bytes.Equal(after.Measurement, before.Measurement) {
				t.Errorf("measurement changed across migration:\n  before %x\n  after  %x",
					before.Measurement, after.Measurement)
			}
			if err := res.Guest.Destroy(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMigrateRejectsEveryFlippedByte flips every single byte of the
// migration stream, one migration per flip, and requires the
// destination to reject each at the attestation gate — the source must
// keep serving every time. This is the tamper-evidence property: no
// single-bit-flip region of the stream is unprotected.
func TestMigrateRejectsEveryFlippedByte(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(string(kind), func(t *testing.T) {
			b := backendFor(t, kind, 33)
			g, err := b.Launch(guestCfg())
			if err != nil {
				t.Fatal(err)
			}
			img, err := b.ExportLive(g)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Encode(img, DefaultChunkSize)
			if err != nil {
				t.Fatal(err)
			}
			// Frame boundaries, in send order: header, chunks, trailer.
			frames := [][]byte{st.HeaderFrame()}
			for i := 0; i < st.NumChunks(); i++ {
				frames = append(frames, st.ChunkFrame(i))
			}
			frames = append(frames, st.TrailerFrame())

			total := 0
			for _, f := range frames {
				total += len(f)
			}
			for flip := 0; flip < total; flip++ {
				frameIdx, off := flip, 0
				for off < len(frames) && frameIdx >= len(frames[off]) {
					frameIdx -= len(frames[off])
					off++
				}
				wantFrame, wantByte := off, frameIdx

				eng := NewEngine(Config{
					Obs: obs.New(),
					Tamper: func(sendIndex int, frame []byte) []byte {
						if sendIndex != wantFrame {
							return frame
						}
						out := append([]byte(nil), frame...)
						out[wantByte] ^= 0x40
						return out
					},
				})
				res, err := eng.Migrate(Spec{
					Guest: g, Source: b, Dest: b, DestConfig: guestCfg(),
					SourceHost: "host-a", DestHost: "host-b",
				})
				if err == nil {
					t.Fatalf("flip byte %d (frame %d offset %d): migration succeeded", flip, wantFrame, wantByte)
				}
				if !errors.Is(err, attest.ErrVerification) {
					t.Fatalf("flip byte %d: not an attestation rejection: %v", flip, err)
				}
				if cberr.CodeOf(err) != cberr.CodeAttestation {
					t.Fatalf("flip byte %d: code %s", flip, cberr.CodeOf(err))
				}
				if res.Outcome != OutcomeRolledBack {
					t.Fatalf("flip byte %d: outcome %s", flip, res.Outcome)
				}
				if destroyed(t, g) {
					t.Fatalf("flip byte %d: source guest destroyed on rollback", flip)
				}
			}
		})
	}
}

func migrateSpec(b liveBackend, g tee.Guest) Spec {
	return Spec{
		Guest: g, Source: b, Dest: b, DestConfig: guestCfg(),
		SourceHost: "host-a", DestHost: "host-b",
	}
}

// TestMigrateResumesAfterSever injects probabilistic stream severs and
// expects the engine to resume from the last acked chunk and finish.
func TestMigrateResumesAfterSever(t *testing.T) {
	b := backendFor(t, tee.KindSEV, 4)
	g, err := b.Launch(guestCfg())
	if err != nil {
		t.Fatal(err)
	}
	fp := faultplane.New(99)
	if err := fp.Register(faultplane.Spec{
		Point: faultplane.PointMigrateStream, Kind: faultplane.KindDrop, Probability: 0.4,
	}); err != nil {
		t.Fatal(err)
	}
	// Chunk size 4 forces a multi-chunk stream so severs land mid-way.
	eng := NewEngine(Config{Obs: obs.New(), Faults: fp})
	eng.chunkSize, eng.maxResumes = 4, 1000
	res, err := eng.Migrate(migrateSpec(b, g))
	if err != nil {
		t.Fatalf("migrate under severs: %v", err)
	}
	if res.Outcome != OutcomeMigrated {
		t.Fatalf("outcome %s", res.Outcome)
	}
	if res.Resumes == 0 {
		t.Error("expected at least one resume under p=0.4 severs")
	}
	if fp.Injected() == 0 {
		t.Error("no faults recorded")
	}
}

// TestMigrateRetriesCorruptChunks injects in-transit corruption; the
// chunk CRC must catch each corrupt delivery and the engine must
// retransmit until the stream lands clean.
func TestMigrateRetriesCorruptChunks(t *testing.T) {
	b := backendFor(t, tee.KindSEV, 5)
	g, err := b.Launch(guestCfg())
	if err != nil {
		t.Fatal(err)
	}
	fp := faultplane.New(7)
	if err := fp.Register(faultplane.Spec{
		Point: faultplane.PointMigrateStream, Kind: faultplane.KindError, Probability: 0.4,
	}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Config{Obs: obs.New(), Faults: fp})
	eng.chunkSize, eng.maxResumes = 4, 1000
	res, err := eng.Migrate(migrateSpec(b, g))
	if err != nil {
		t.Fatalf("migrate under corruption: %v", err)
	}
	if res.Outcome != OutcomeMigrated || res.Resumes == 0 {
		t.Fatalf("outcome %s resumes %d", res.Outcome, res.Resumes)
	}
}

// TestMigrateRollsBackWhenResumesExhausted arms a permanent sever: the
// engine must give up after maxResumes, roll back, and leave the
// source serving.
func TestMigrateRollsBackWhenResumesExhausted(t *testing.T) {
	b := backendFor(t, tee.KindSEV, 6)
	g, err := b.Launch(guestCfg())
	if err != nil {
		t.Fatal(err)
	}
	fp := faultplane.New(1)
	if err := fp.Register(faultplane.Spec{
		Point: faultplane.PointMigrateStream, Kind: faultplane.KindDrop, Probability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Config{Obs: obs.New(), Faults: fp})
	eng.maxResumes = 3
	res, err := eng.Migrate(migrateSpec(b, g))
	if err == nil {
		t.Fatal("permanent sever: migration succeeded")
	}
	if cberr.CodeOf(err) != cberr.CodeUnavailable {
		t.Errorf("code %s, want unavailable", cberr.CodeOf(err))
	}
	if res.Outcome != OutcomeRolledBack || res.Guest != g {
		t.Errorf("rollback result %+v", res)
	}
	if destroyed(t, g) {
		t.Error("source destroyed on rollback")
	}
	if res.Resumes != 4 {
		t.Errorf("resumes %d, want maxResumes+1", res.Resumes)
	}
}

// TestMigrateVerifyFaultRollsBack fails the attestation gate via the
// migrate.verify fault point.
func TestMigrateVerifyFaultRollsBack(t *testing.T) {
	b := backendFor(t, tee.KindCCA, 8)
	g, err := b.Launch(guestCfg())
	if err != nil {
		t.Fatal(err)
	}
	fp := faultplane.New(1)
	if err := fp.Register(faultplane.Spec{
		Point: faultplane.PointMigrateVerify, Kind: faultplane.KindError, Probability: 1,
	}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Config{Obs: obs.New(), Faults: fp})
	_, merr := eng.Migrate(migrateSpec(b, g))
	if merr == nil {
		t.Fatal("failed verify: migration succeeded")
	}
	if !errors.Is(merr, attest.ErrVerification) || cberr.CodeOf(merr) != cberr.CodeAttestation {
		t.Errorf("verify fault classification: %v (code %s)", merr, cberr.CodeOf(merr))
	}
	if cberr.LayerOf(merr) != cberr.LayerAttest {
		t.Errorf("layer %s, want attest", cberr.LayerOf(merr))
	}
	if destroyed(t, g) {
		t.Error("source destroyed on verify rollback")
	}
}

// TestMigrateCutoverFailureRollsBack: an adoption error after the gate
// must destroy the imported copy and keep the source.
func TestMigrateCutoverFailureRollsBack(t *testing.T) {
	b := backendFor(t, tee.KindTDX, 9)
	g, err := b.Launch(guestCfg())
	if err != nil {
		t.Fatal(err)
	}
	var imported tee.Guest
	eng := NewEngine(Config{Obs: obs.New()})
	res, err := eng.Migrate(Spec{
		Guest: g, Source: b, Dest: b, DestConfig: guestCfg(),
		Cutover: func(ng tee.Guest) error {
			imported = ng
			return errors.New("pool full")
		},
	})
	if err == nil {
		t.Fatal("failed cutover: migration succeeded")
	}
	if res.Outcome != OutcomeRolledBack {
		t.Fatalf("outcome %s", res.Outcome)
	}
	if destroyed(t, g) {
		t.Error("source destroyed on cutover rollback")
	}
	if imported == nil || !destroyed(t, imported) {
		t.Error("imported copy not destroyed on cutover rollback")
	}
}

// TestMigrateDowntimeBeatsColdBoot: for every kind, the modeled
// blackout window of a live migration is below the platform's cold
// boot cost — the reason to migrate instead of re-launching — and the
// downtime is deterministic for a fixed seed.
func TestMigrateDowntimeBeatsColdBoot(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(string(kind), func(t *testing.T) {
			downtime := func() (time.Duration, time.Duration) {
				b := backendFor(t, kind, 13)
				g, err := b.Launch(guestCfg())
				if err != nil {
					t.Fatal(err)
				}
				cold := g.BootCost()
				eng := NewEngine(Config{Obs: obs.New()})
				res, err := eng.Migrate(migrateSpec(b, g))
				if err != nil {
					t.Fatal(err)
				}
				return res.Downtime, cold
			}
			d1, cold := downtime()
			d2, _ := downtime()
			if d1 != d2 {
				t.Errorf("downtime not deterministic: %v vs %v", d1, d2)
			}
			if d1 <= 0 || d1 >= cold {
				t.Errorf("downtime %v not inside (0, cold boot %v)", d1, cold)
			}
		})
	}
}

// TestMigrateMetrics checks the committed metric families.
func TestMigrateMetrics(t *testing.T) {
	reg := obs.New()
	b := backendFor(t, tee.KindSEV, 14)
	g, err := b.Launch(guestCfg())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Config{Obs: reg})
	if _, err := eng.Migrate(migrateSpec(b, g)); err != nil {
		t.Fatal(err)
	}
	// A rollback on a second, tampered migration.
	g2, err := b.Launch(guestCfg())
	if err != nil {
		t.Fatal(err)
	}
	engBad := NewEngine(Config{Obs: reg, Tamper: func(i int, f []byte) []byte {
		out := append([]byte(nil), f...)
		out[len(out)-1] ^= 1
		return out
	}})
	if _, err := engBad.Migrate(migrateSpec(b, g2)); err == nil {
		t.Fatal("tampered migration succeeded")
	}

	kind := string(tee.KindSEV)
	if v := reg.Counter("confbench_migrations_total", "kind", kind, "outcome", "migrated").Value(); v != 1 {
		t.Errorf("migrated count %d", v)
	}
	if v := reg.Counter("confbench_migrations_total", "kind", kind, "outcome", "rolled_back").Value(); v != 1 {
		t.Errorf("rolled_back count %d", v)
	}
	if v := reg.Counter("confbench_migration_bytes_total", "kind", kind).Value(); v == 0 {
		t.Error("no bytes counted")
	}
}

func TestMigrateRejectsNilSpec(t *testing.T) {
	eng := NewEngine(Config{Obs: obs.New()})
	if _, err := eng.Migrate(Spec{}); cberr.CodeOf(err) != cberr.CodeInvalid {
		t.Errorf("empty spec: %v", err)
	}
}
