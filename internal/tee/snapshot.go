package tee

import (
	"errors"
	"fmt"
	"time"
)

// Snapshot errors shared by the backends.
var (
	// ErrNilImage is returned when restoring from a nil image.
	ErrNilImage = errors.New("tee: nil guest image")
	// ErrImageKind is returned when an image is restored on a backend
	// of a different TEE kind.
	ErrImageKind = errors.New("tee: guest image kind mismatch")
)

// GuestImage is a captured, reusable guest memory image: the product
// of one full measured build, priced once, that any number of guests
// can then be restored from at the (much cheaper) restore cost. Images
// are what the snapshot cache in internal/vm stores under its byte
// budget.
type GuestImage struct {
	// Kind is the TEE platform the image was captured on; it can only
	// be restored on a backend of the same kind.
	Kind Kind
	// MemoryMB is the guest memory size the image encodes.
	MemoryMB int
	// SizeBytes is the image's storage footprint, charged against the
	// snapshot cache's byte budget.
	SizeBytes int64
	// RestoreCost is the virtual boot cost each restored guest charges
	// in place of a full measured launch.
	RestoreCost time.Duration
	// Measurement is the template's sealed launch measurement (MRTD,
	// SNP launch digest, RIM); every restored guest attests with it.
	Measurement []byte
	// State is the platform's serialized guest state, the same bytes a
	// MigrationImage of the template would carry.
	State []byte
}

// Validate checks that the image is restorable on a backend of kind k.
func (img *GuestImage) Validate(k Kind) error {
	if img == nil {
		return ErrNilImage
	}
	return validateImage(img.Kind, k, img.Measurement)
}

// validateImage is the identity check restores and imports share.
func validateImage(got, want Kind, measurement []byte) error {
	if got != want {
		return fmt.Errorf("%w: image is %q, backend is %q", ErrImageKind, got, want)
	}
	if len(measurement) != MeasurementSize {
		return fmt.Errorf("%w: got %d bytes, want %d", ErrMeasurementSize,
			len(measurement), MeasurementSize)
	}
	return nil
}

// Snapshotter is implemented by backends that support the priced
// snapshot/restore pair behind warm guest pools. Snapshot performs one
// full measured template build, captures it into an image, and tears
// the template down; Restore rebuilds a running guest from the image
// with the re-measurement skipped, so the restored guest's BootCost is
// the image's RestoreCost rather than a cold launch.
type Snapshotter interface {
	Snapshot(cfg GuestConfig) (*GuestImage, error)
	Restore(img *GuestImage, cfg GuestConfig) (Guest, error)
}
