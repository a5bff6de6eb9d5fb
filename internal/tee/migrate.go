package tee

import (
	"errors"
	"time"
)

// Live-migration errors shared by the backends.
var (
	// ErrNotLive is returned when a guest offered for export is not
	// tracked as live on this backend — it was launched elsewhere or
	// already destroyed.
	ErrNotLive = errors.New("tee: guest not live on this backend")
	// ErrBadMigrationState is returned when an image's state does not
	// decode as this backend's serialization, or decodes to something
	// the platform would refuse to build (too many pages, a page listed
	// twice).
	ErrBadMigrationState = errors.New("tee: undecodable migration state")
	// ErrMeasurementSize is returned when an image carries a
	// measurement of the wrong length for the platform.
	ErrMeasurementSize = errors.New("tee: bad measurement length")
)

// MigrationImage is a running guest's transferable state, captured by
// ExportLive on the source host and replayed by ImportLive on the
// destination. Unlike GuestImage (a reusable template any number of
// guests restore from), a MigrationImage describes one specific live
// guest mid-flight: its launch measurement travels in the clear so the
// destination can gate resume on re-verifying it, while State is the
// backend-private serialization of everything needed to rebuild the
// guest (TD attributes and page set, SNP policy and RMP donation
// shape, realm personalization and granule count).
type MigrationImage struct {
	// Kind is the TEE platform; imports are kind-checked like
	// restores.
	Kind Kind
	// MemoryMB is the guest memory size.
	MemoryMB int
	// Measurement is the launch measurement the destination re-derives
	// and verifies before resuming: MRTD for TDX, the launch digest
	// for SEV-SNP, the RIM for CCA.
	Measurement []byte
	// State is the backend-private serialized guest state. Only the
	// backend kind that produced it can decode it.
	State []byte
	// ExportCost is the source-side virtual cost of the capture,
	// amortized over the pre-copy phase while the source keeps
	// serving.
	ExportCost time.Duration
	// ResumeCost is the destination-side virtual blackout cost of
	// rebuilding and entering the guest — the dominant term of
	// migration downtime, priced like a warm restore (far below a
	// cold boot).
	ResumeCost time.Duration
}

// Validate checks that the image is importable on a backend of kind k.
func (img *MigrationImage) Validate(k Kind) error {
	if img == nil {
		return ErrNilImage
	}
	return validateImage(img.Kind, k, img.Measurement)
}

// MeasurementSize is the byte length of the launch measurements all
// three platforms carry (SHA-384: MRTD, SNP launch digest, CCA RIM).
const MeasurementSize = 48

// Measurement is one such launch measurement.
type Measurement = [MeasurementSize]byte

// Migrator is implemented by backends that support live migration of
// running confidential guests. ExportLive captures a tracked guest's
// state without stopping it — the source keeps serving until the
// migration engine cuts traffic over — and ImportLive rebuilds a
// running guest from a verified image on the destination.
//
// The engine's attestation gate relies on ImportLive re-deriving the
// platform measurement from the imported state: re-exporting the
// imported guest must reproduce the original Measurement bit-for-bit,
// so a destination can prove the resumed guest matches what the
// source sealed.
type Migrator interface {
	ExportLive(g Guest) (*MigrationImage, error)
	ImportLive(img *MigrationImage, cfg GuestConfig) (Guest, error)
}
