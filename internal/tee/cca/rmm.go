// Package cca simulates the ARM Confidential Compute Architecture for
// ConfBench.
//
// CCA adds the realm and root worlds to TrustZone's normal and secure
// worlds. Confidential VMs (realms) and the Realm Management Monitor
// (RMM) live in the realm world: the host drives realm lifecycle
// through the Realm Management Interface (RMI) and realms request
// services — attestation, memory management — through the Realm
// Services Interface (RSI). This package models granule delegation,
// the realm state machine, and the Realm Initial Measurement (RIM),
// which RSI_MEASUREMENT_READ, the one RSI call modelled, reads back.
//
// As in the paper, no CCA silicon exists: realms run inside a model of
// the ARM Fixed Virtual Platform (FVP) simulator (backend.go). That
// simulation layer is what produces CCA's large and noisy overheads,
// and — matching §IV-B — it lacks the hardware needed for attestation
// and for perf counters, so AttestationReport returns
// tee.ErrNoAttestation and monitoring falls back to a custom script
// path (internal/perfmon).
package cca

import (
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"confbench/internal/obs"
)

// GranuleSize is the delegation granularity (4 KiB granules).
const GranuleSize = 4096

// MeasurementSize is the RIM length (SHA-384 as in RMM spec usage).
const MeasurementSize = sha512.Size384

// RMM/RMI/RSI errors.
var (
	ErrGranuleDelegated   = errors.New("cca: granule already delegated")
	ErrGranuleUndelegated = errors.New("cca: granule not delegated")
	ErrGranuleInUse       = errors.New("cca: granule assigned to a realm")
	ErrRealmNotFound      = errors.New("cca: no such realm")
	ErrRealmState         = errors.New("cca: operation illegal in current realm state")
)

// RealmState is the lifecycle state of a realm.
type RealmState int

// Realm lifecycle states.
const (
	RealmNew RealmState = iota + 1
	RealmActive
	RealmDestroyed
)

// String names the state.
func (s RealmState) String() string {
	switch s {
	case RealmNew:
		return "new"
	case RealmActive:
		return "active"
	case RealmDestroyed:
		return "destroyed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Realm is one confidential VM in the realm world.
type Realm struct {
	id    uint64
	state RealmState
	// rim is the Realm Initial Measurement, extended by each
	// RMI_DATA_CREATE before activation.
	rim [MeasurementSize]byte
	// rpv is the Realm Personalization Value.
	rpv [64]byte
	// granules holds the physical granules mapped into the realm.
	granules map[uint64]bool
}

// ID returns the realm identifier.
func (r *Realm) ID() uint64 { return r.id }

// State returns the lifecycle state.
func (r *Realm) State() RealmState { return r.state }

// RIM returns the Realm Initial Measurement.
func (r *Realm) RIM() [MeasurementSize]byte { return r.rim }

// GranuleCount returns the number of granules mapped into the realm.
func (r *Realm) GranuleCount() int { return len(r.granules) }

type granule struct {
	delegated bool
	realmID   uint64 // 0 when delegated but unassigned
}

// RMM is the Realm Management Monitor: it owns stage-2 translation for
// realms, tracks granule delegation, and implements the RMI (host
// side) and RSI (realm side) interfaces.
type RMM struct {
	mu       sync.Mutex
	granules map[uint64]*granule
	realms   map[uint64]*Realm
	nextID   uint64

	// calls counts RMI and RSI invocations the monitor served.
	calls *obs.Counter
}

// rmmVersion labels the realm management monitor build.
const rmmVersion = "RMM-1.0-rel0"

// NewRMM boots a Realm Management Monitor.
func NewRMM() *RMM {
	return &RMM{
		granules: make(map[uint64]*granule, 256),
		realms:   make(map[uint64]*Realm, 4),
		nextID:   1,
		calls:    obs.Default().Counter("confbench_tee_rmm_calls_total", "tee", "cca"),
	}
}

// SetObsRegistry points the monitor's call counter at reg instead of
// the process-wide default. Call before serving traffic.
func (m *RMM) SetObsRegistry(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls = obs.OrDefault(reg).Counter("confbench_tee_rmm_calls_total", "tee", "cca")
}

// Version returns the RMM release string.
func (m *RMM) Version() string { return rmmVersion }

func granuleIndex(pa uint64) (uint64, error) {
	if pa%GranuleSize != 0 {
		return 0, fmt.Errorf("cca: address %#x not granule aligned", pa)
	}
	return pa / GranuleSize, nil
}

// --- RMI (host interface) ---

// RMIGranuleDelegate moves a granule from the normal world to the
// realm world (RMI_GRANULE_DELEGATE).
func (m *RMM) RMIGranuleDelegate(pa uint64) error {
	idx, err := granuleIndex(pa)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls.Inc()
	if g, ok := m.granules[idx]; ok && g.delegated {
		return ErrGranuleDelegated
	}
	m.granules[idx] = &granule{delegated: true}
	return nil
}

// RMIGranuleUndelegate returns a granule to the normal world. A
// granule still assigned to a realm cannot leave the realm world.
func (m *RMM) RMIGranuleUndelegate(pa uint64) error {
	idx, err := granuleIndex(pa)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls.Inc()
	g, ok := m.granules[idx]
	if !ok || !g.delegated {
		return ErrGranuleUndelegated
	}
	if g.realmID != 0 {
		return ErrGranuleInUse
	}
	delete(m.granules, idx)
	return nil
}

// RMIRealmCreate creates a realm with the given personalization value
// (RMI_REALM_CREATE).
func (m *RMM) RMIRealmCreate(rpv []byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls.Inc()
	id := m.nextID
	m.nextID++
	r := &Realm{
		id:       id,
		state:    RealmNew,
		granules: make(map[uint64]bool, 64),
	}
	copy(r.rpv[:], rpv)
	// The RIM starts from the realm parameters (here: the RPV).
	h := sha512.New384()
	h.Write([]byte("RMI_REALM_CREATE"))
	h.Write(r.rpv[:])
	copy(r.rim[:], h.Sum(nil))
	m.realms[id] = r
	return id, nil
}

func (m *RMM) realm(id uint64) (*Realm, error) {
	r, ok := m.realms[id]
	if !ok {
		return nil, ErrRealmNotFound
	}
	return r, nil
}

// RMIDataCreate maps a delegated granule into a new realm and extends
// the RIM with its content (RMI_DATA_CREATE). Only legal before
// activation.
func (m *RMM) RMIDataCreate(realmID, pa uint64, content []byte) error {
	idx, err := granuleIndex(pa)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls.Inc()
	r, err := m.realm(realmID)
	if err != nil {
		return err
	}
	if r.state != RealmNew {
		return fmt.Errorf("%w: data create in %s", ErrRealmState, r.state)
	}
	g, ok := m.granules[idx]
	if !ok || !g.delegated {
		return ErrGranuleUndelegated
	}
	if g.realmID != 0 {
		return ErrGranuleInUse
	}
	g.realmID = realmID
	r.granules[idx] = true

	h := sha512.New384()
	h.Write(r.rim[:])
	h.Write([]byte("RMI_DATA_CREATE"))
	var ipa [8]byte
	binary.LittleEndian.PutUint64(ipa[:], pa)
	h.Write(ipa[:])
	d := sha512.Sum384(content)
	h.Write(d[:])
	copy(r.rim[:], h.Sum(nil))
	return nil
}

// RMIRealmActivate seals the RIM and makes the realm runnable
// (RMI_REALM_ACTIVATE).
func (m *RMM) RMIRealmActivate(realmID uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls.Inc()
	r, err := m.realm(realmID)
	if err != nil {
		return err
	}
	if r.state != RealmNew {
		return fmt.Errorf("%w: activate in %s", ErrRealmState, r.state)
	}
	r.state = RealmActive
	return nil
}

// RMIRealmImport rebuilds a realm from a saved image: the granules are
// delegated and assigned without per-granule RIM extension, and the
// realm is created directly in the active state carrying the image's
// sealed measurement. This is the realm-image-reuse path warm pools
// rely on — the expensive measured build is skipped.
func (m *RMM) RMIRealmImport(rpv []byte, rim [MeasurementSize]byte, granulePAs []uint64) (uint64, error) {
	indices := make([]uint64, len(granulePAs))
	for i, pa := range granulePAs {
		idx, err := granuleIndex(pa)
		if err != nil {
			return 0, err
		}
		indices[i] = idx
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls.Inc()
	for _, idx := range indices {
		if g, ok := m.granules[idx]; ok && g.delegated {
			return 0, ErrGranuleDelegated
		}
	}
	id := m.nextID
	m.nextID++
	r := &Realm{
		id:       id,
		state:    RealmActive,
		rim:      rim,
		granules: make(map[uint64]bool, len(indices)),
	}
	copy(r.rpv[:], rpv)
	for _, idx := range indices {
		m.granules[idx] = &granule{delegated: true, realmID: id}
		r.granules[idx] = true
	}
	m.realms[id] = r
	return id, nil
}

// RMIRealmDestroy tears the realm down, detaching its granules (they
// stay delegated until undelegated individually).
func (m *RMM) RMIRealmDestroy(realmID uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls.Inc()
	r, err := m.realm(realmID)
	if err != nil {
		return err
	}
	for idx := range r.granules {
		if g, ok := m.granules[idx]; ok {
			g.realmID = 0
		}
	}
	r.state = RealmDestroyed
	r.granules = nil
	delete(m.realms, realmID)
	return nil
}

// --- RSI (realm interface) ---

// RSIMeasurementRead returns the RIM to the realm
// (RSI_MEASUREMENT_READ with index 0).
func (m *RMM) RSIMeasurementRead(realmID uint64) ([MeasurementSize]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls.Inc()
	r, err := m.realm(realmID)
	if err != nil {
		return [MeasurementSize]byte{}, err
	}
	if r.state != RealmActive {
		return [MeasurementSize]byte{}, fmt.Errorf("%w: measurement read in %s", ErrRealmState, r.state)
	}
	return r.rim, nil
}

// RealmByID returns the realm for inspection in tests.
func (m *RMM) RealmByID(id uint64) (*Realm, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.realm(id)
}

// DelegatedGranules returns the number of granules in the realm world.
func (m *RMM) DelegatedGranules() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int
	for _, g := range m.granules {
		if g.delegated {
			n++
		}
	}
	return n
}
