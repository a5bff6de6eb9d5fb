package migrate

import (
	"errors"
	"fmt"
	"time"

	"confbench/internal/attest"
	"confbench/internal/cberr"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/tee"
)

// Downtime model constants. The blackout window — the span during
// which neither copy serves — covers the final chunk's wire time, the
// attestation gate, and the platform's resume cost; everything before
// it streams while the source keeps serving.
const (
	// wireNsPerByte prices the blackout portion of the transfer.
	wireNsPerByte = 20
	// verifyCost is the fixed attestation-gate cost inside the
	// blackout window.
	verifyCost = 5 * time.Millisecond
	// resumeLimit bounds stream-sever recoveries per migration before
	// the engine gives up and rolls back.
	resumeLimit = 8
)

// Outcome classifies how a migration ended.
type Outcome string

const (
	// OutcomeMigrated: the guest now runs on the destination; the
	// source copy was destroyed after cutover.
	OutcomeMigrated Outcome = "migrated"
	// OutcomeRolledBack: the migration aborted and the source guest
	// keeps serving. The destination never ran a second live copy.
	OutcomeRolledBack Outcome = "rolled_back"
)

// Config wires an Engine to the cluster's observability and fault
// planes.
type Config struct {
	// Obs receives the migration metrics (nil = process default).
	Obs *obs.Registry
	// Faults is consulted at migrate.stream per chunk and at
	// migrate.verify before resume (nil = no injection).
	Faults *faultplane.Plane
	// Tamper, when set, is an on-path attacker for tests: it may
	// rewrite any frame before the receiver sees it. sendIndex 0 is
	// the header, 1..n the chunks, n+1 the trailer. Returning the
	// frame unchanged means no tampering.
	Tamper func(sendIndex int, frame []byte) []byte
}

// Engine drives live migrations.
type Engine struct {
	cfg Config
	// chunkSize (DefaultChunkSize) and maxResumes (resumeLimit) shape
	// the stream; tests shrink them.
	chunkSize, maxResumes int
}

// NewEngine returns an engine.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg, chunkSize: DefaultChunkSize, maxResumes: resumeLimit}
}

// Spec describes one migration: which guest, between which backends,
// and how the new copy is adopted.
type Spec struct {
	// Guest is the running source guest.
	Guest tee.Guest
	// Source exports the guest's live state; Dest imports it. With
	// model backends shared per kind these are often the same
	// instance — the host split is carried by SourceHost/DestHost.
	Source tee.Migrator
	Dest   tee.Migrator
	// DestConfig configures the imported guest.
	DestConfig tee.GuestConfig
	// SourceHost/DestHost name the hosts for fault targeting and
	// metrics.
	SourceHost string
	DestHost   string
	// Cutover adopts the verified destination guest into the serving
	// path (pool insert, routing swap). It runs inside the blackout
	// window; an error rolls the migration back (the engine destroys
	// the new guest). Nil means no adoption step.
	Cutover func(tee.Guest) error
}

// Result reports one migration.
type Result struct {
	// Kind is the guest's TEE platform.
	Kind tee.Kind
	// Outcome is OutcomeMigrated or OutcomeRolledBack.
	Outcome Outcome
	// Guest is the live guest after the migration: the imported copy
	// on success, the still-running source on rollback.
	Guest tee.Guest
	// Downtime is the modeled blackout window: final-chunk wire time,
	// attestation gate, fault-injected gate latency, and the
	// platform's resume cost.
	Downtime time.Duration
	// Transferred is the total stream bytes delivered (re-sent bytes
	// after a sever or corruption count again).
	Transferred int64
	// Chunks is the stream's chunk count.
	Chunks int
	// Resumes counts mid-stream recoveries (sever re-attach or
	// corrupt-chunk retransmit).
	Resumes int
	// Verdict is the destination's attestation-gate verdict, when the
	// stream got far enough to be judged.
	Verdict *attest.Verdict
}

// metrics handles, resolved per call (migrations are rare; the lookup
// cost is irrelevant next to the stream itself).
func (e *Engine) record(res *Result, err error) {
	reg := obs.OrDefault(e.cfg.Obs)
	kind := string(res.Kind)
	reg.Counter("confbench_migrations_total",
		"kind", kind, "outcome", string(res.Outcome)).Inc()
	reg.Counter("confbench_migration_bytes_total", "kind", kind).
		Add(uint64(res.Transferred))
	reg.Counter("confbench_migration_resumes_total", "kind", kind).
		Add(uint64(res.Resumes))
	if res.Outcome == OutcomeMigrated {
		reg.Histogram("confbench_migration_downtime_seconds", "tee", kind).
			Observe(res.Downtime)
	}
}

// rollback finalizes a failed migration: the source guest keeps
// serving, any imported copy is destroyed so exactly one live copy
// remains, and the typed cause is returned alongside the result.
func (e *Engine) rollback(spec Spec, res *Result, newGuest tee.Guest, cause error) (*Result, error) {
	if newGuest != nil {
		_ = newGuest.Destroy()
	}
	res.Outcome = OutcomeRolledBack
	res.Guest = spec.Guest
	e.record(res, cause)
	return res, cause
}

// Migrate streams spec.Guest from Source to Dest, gates resume on
// attestation, and cuts over. On any failure the source guest keeps
// serving — the returned Result reports OutcomeRolledBack and the
// error carries a typed cberr code (attestation_failed for gate
// rejections, unavailable for exhausted stream resumes).
//
// The engine never leaves two live copies: the destination guest is
// destroyed on any post-import failure, and the source guest is
// destroyed only after a successful cutover.
func (e *Engine) Migrate(spec Spec) (*Result, error) {
	res := &Result{Outcome: OutcomeRolledBack}
	if spec.Guest == nil || spec.Source == nil || spec.Dest == nil {
		return res, cberr.New(cberr.CodeInvalid, cberr.LayerHost,
			"migrate: spec needs guest, source, and dest")
	}
	res.Kind = spec.Guest.Kind()

	// Phase 1: export. The source guest keeps running throughout.
	img, err := spec.Source.ExportLive(spec.Guest)
	if err != nil {
		return e.rollback(spec, res, nil,
			cberr.Wrap(cberr.CodeUnavailable, cberr.LayerHost,
				fmt.Errorf("migrate export: %w", err)))
	}

	// Phase 2: frame and stream, chunk at a time, with fault-injected
	// severs (resume from the receiver's cursor), corruptions (CRC
	// NAK, retransmit), and latency (pre-blackout: absorbed; final
	// chunk: counted into downtime).
	stream, err := Encode(img, e.chunkSize)
	if err != nil {
		return e.rollback(spec, res, nil,
			cberr.Wrap(cberr.CodeInternal, cberr.LayerHost,
				fmt.Errorf("migrate encode: %w", err)))
	}
	res.Chunks = stream.NumChunks()
	target := faultplane.Target{
		TEE:  string(res.Kind),
		Host: spec.SourceHost,
		VM:   spec.Guest.ID(),
	}

	recv := NewReceiver()
	var blackoutFaultLatency time.Duration
	deliver := func(sendIndex int, frame []byte) error {
		if e.cfg.Tamper != nil {
			frame = e.cfg.Tamper(sendIndex, frame)
		}
		switch sendIndex {
		case 0:
			err = recv.FeedHeader(frame)
		case stream.NumChunks() + 1:
			err = recv.FeedTrailer(frame)
		default:
			err = recv.FeedChunk(frame)
		}
		if err == nil {
			res.Transferred += int64(len(frame))
		}
		return err
	}

	// Header travels un-faulted: the stream points model the bulk
	// page transfer, and a header loss just restarts a zero-byte
	// stream.
	if err := deliver(0, stream.HeaderFrame()); err != nil {
		return e.rollback(spec, res, nil, e.gateError(res, err))
	}

	for recv.Cursor() < stream.NumChunks() {
		i := recv.Cursor()
		d := e.cfg.Faults.Evaluate(faultplane.PointMigrateStream, target)
		lastChunk := i == stream.NumChunks()-1
		if d.Inject {
			switch d.Kind {
			case faultplane.KindDrop, faultplane.KindCrash:
				// Sever: the connection dies before this chunk lands.
				// Resume re-attaches at the receiver's cursor — the
				// header is re-fed (idempotent) and transfer restarts
				// from the last acked chunk.
				res.Resumes++
				if res.Resumes > e.maxResumes {
					return e.rollback(spec, res, nil,
						cberr.Wrap(cberr.CodeUnavailable, cberr.LayerHost,
							fmt.Errorf("migrate stream: %d severs exhausted %d resumes: %w",
								res.Resumes, e.maxResumes, d.Err)))
				}
				if err := deliver(0, stream.HeaderFrame()); err != nil {
					return e.rollback(spec, res, nil, e.gateError(res, err))
				}
				continue
			case faultplane.KindError:
				// Corruption in transit: flip a payload byte, let the
				// receiver's chunk CRC reject it, retransmit.
				frame := append([]byte(nil), stream.ChunkFrame(i)...)
				if len(frame) > 17 {
					frame[len(frame)-1] ^= 0xFF
				}
				if err := deliver(i+1, frame); err != nil {
					if errors.Is(err, ErrChunkCRC) {
						res.Resumes++
						if res.Resumes > e.maxResumes {
							return e.rollback(spec, res, nil,
								cberr.Wrap(cberr.CodeUnavailable, cberr.LayerHost,
									fmt.Errorf("migrate stream: corruption exhausted %d resumes: %w",
										e.maxResumes, err)))
						}
						continue // retransmit the same chunk clean
					}
					// Tampering (not the injected corruption) made the
					// receiver reject the frame outright.
					return e.rollback(spec, res, nil, e.gateError(res, err))
				}
				// Corrupted frame was somehow accepted (tamper hook
				// repaired it); fall through to the next chunk.
				continue
			case faultplane.KindLatency, faultplane.KindSlowIO:
				if lastChunk {
					blackoutFaultLatency += d.Latency
				}
			}
		}
		if err := deliver(i+1, stream.ChunkFrame(i)); err != nil {
			return e.rollback(spec, res, nil, e.gateError(res, err))
		}
	}

	if err := deliver(stream.NumChunks()+1, stream.TrailerFrame()); err != nil {
		return e.rollback(spec, res, nil, e.gateError(res, err))
	}
	rimg, err := recv.Image()
	if err != nil {
		return e.rollback(spec, res, nil, e.gateError(res, err))
	}

	// Phase 3: attestation gate, then resume. From here to cutover is
	// the blackout window.
	d := e.cfg.Faults.Evaluate(faultplane.PointMigrateVerify,
		faultplane.Target{TEE: string(res.Kind), Host: spec.DestHost, VM: spec.Guest.ID()})
	if d.Inject {
		switch d.Kind {
		case faultplane.KindError, faultplane.KindDrop, faultplane.KindCrash:
			// d.Err is already classified (unavailable); re-classify as an
			// attestation failure — a dead or lying gate must not be
			// mistaken for a retryable transport error.
			return e.rollback(spec, res, nil,
				fmt.Errorf("%w: %w", attest.ErrVerification,
					cberr.New(cberr.CodeAttestation, cberr.LayerAttest,
						"migrate verify: "+d.Err.Error())))
		case faultplane.KindLatency, faultplane.KindSlowIO:
			blackoutFaultLatency += d.Latency
		}
	}

	newGuest, err := spec.Dest.ImportLive(rimg, spec.DestConfig)
	if err != nil {
		return e.rollback(spec, res, nil,
			cberr.Wrap(cberr.CodeUnavailable, cberr.LayerHost,
				fmt.Errorf("migrate import: %w", err)))
	}

	// Re-derive the measurement from the imported guest and compare
	// against what the source sealed into the stream. A tampered or
	// stale measurement aborts before the guest ever serves.
	reimg, err := spec.Dest.ExportLive(newGuest)
	if err != nil {
		return e.rollback(spec, res, newGuest,
			cberr.Wrap(cberr.CodeAttestation, cberr.LayerAttest,
				fmt.Errorf("migrate verify: re-derive: %w: %w", attest.ErrVerification, err)))
	}
	verdict, err := attest.VerifyMeasurement(res.Kind, rimg.Measurement, reimg.Measurement)
	res.Verdict = verdict
	if err != nil {
		return e.rollback(spec, res, newGuest,
			cberr.Wrap(cberr.CodeAttestation, cberr.LayerAttest,
				fmt.Errorf("migrate verify: %w", err)))
	}

	if spec.Cutover != nil {
		if err := spec.Cutover(newGuest); err != nil {
			return e.rollback(spec, res, newGuest,
				cberr.Wrap(cberr.CodeUnavailable, cberr.LayerHost,
					fmt.Errorf("migrate cutover: %w", err)))
		}
	}

	// Success: retire the source copy. Exactly one live copy remains.
	if err := spec.Guest.Destroy(); err != nil {
		// The destination is serving; a source-destroy error is a leak
		// to report, not a reason to undo the cutover.
		res.Outcome = OutcomeMigrated
		res.Guest = newGuest
		res.Downtime = e.downtime(stream, rimg, blackoutFaultLatency)
		e.record(res, err)
		return res, cberr.Wrap(cberr.CodeInternal, cberr.LayerHost,
			fmt.Errorf("migrate: source destroy after cutover: %w", err))
	}

	res.Outcome = OutcomeMigrated
	res.Guest = newGuest
	res.Downtime = e.downtime(stream, rimg, blackoutFaultLatency)
	e.record(res, nil)
	return res, nil
}

// gateError classifies a receiver rejection that was NOT caused by an
// injected, recoverable fault: the stream reaching the destination
// does not decode to what the source sealed, so the destination must
// treat it as tampering and refuse to resume.
func (e *Engine) gateError(res *Result, err error) error {
	res.Verdict = &attest.Verdict{
		OK:        false,
		Platform:  res.Kind,
		TCBStatus: "Tampered",
		Details:   []string{err.Error()},
	}
	return cberr.Wrap(cberr.CodeAttestation, cberr.LayerAttest,
		fmt.Errorf("migrate stream rejected: %w: %w", attest.ErrVerification, err))
}

// downtime models the blackout window: the final chunk's wire time,
// the attestation gate, injected gate/final-chunk latency, and the
// platform resume cost. Everything earlier in the stream overlaps
// with the source still serving.
func (e *Engine) downtime(stream *Stream, img *tee.MigrationImage, faultLatency time.Duration) time.Duration {
	var lastChunk int
	if n := stream.NumChunks(); n > 0 {
		lastChunk = len(stream.ChunkFrame(n - 1))
	}
	wire := time.Duration(lastChunk+len(stream.TrailerFrame())) * wireNsPerByte
	return wire + verifyCost + faultLatency + img.ResumeCost
}
