// Package container models confidential containers — the additional
// execution-unit type the paper's §V and §VI discuss: serverless
// workloads "can be deployed in confidential containers, however with
// unpractical results from the resulting overheads. Similar results
// can easily be reproduced leveraging ConfBench: we remark that its
// design can accommodate new types of confidential virtual machines,
// including containers".
//
// A confidential container (Kata/CoCo-style) runs inside a pod VM on
// a TEE host, so it pays the host TEE's confidential-computing costs
// *plus* the container stack's own: the in-guest agent and runtime,
// the virtio-fs/overlayfs storage path, per-request pod plumbing, and
// a much heavier startup (image pull + measured pod VM boot). The
// backend composes any TEE backend's cost model with those
// amplifications, demonstrating the §III-A extension point.
package container

import (
	"fmt"

	"confbench/internal/cpumodel"
	"confbench/internal/tee"
)

// costModeler is satisfied by the tdx, sev, and cca backends: their
// cost model, and the noise streams of their guests.
type costModeler interface {
	CostModel() tee.CostModel
	NoiseStream(secure bool) uint64
}

// The container stack's overheads, calibrated to the "unpractical"
// containers of §V.
const (
	// ioFactor multiplies storage factors (virtio-fs + overlayfs).
	ioFactor = 2.6
	// syscallFactor multiplies kernel-entry cost (agent forwarding).
	syscallFactor = 1.8
	// cpuFactor multiplies compute cost (runtime shims).
	cpuFactor = 1.06
	// memFactor multiplies memory-traffic cost.
	memFactor = 1.12
	// extraStartupNs adds image-pull + pod-boot time.
	extraStartupNs = 4.5e9
)

// Backend wraps a TEE backend so that its confidential guests run
// workloads as confidential containers. Normal guests model plain
// (non-confidential) containers on the same host, so ratios compare
// like with like.
type Backend struct {
	inner tee.Backend
}

var _ tee.Backend = (*Backend)(nil)

// NewBackend wraps inner. The inner backend must expose its cost
// model and noise streams (the tdx, sev, and cca backends all do).
func NewBackend(inner tee.Backend) (*Backend, error) {
	if inner == nil {
		return nil, fmt.Errorf("container: nil inner backend")
	}
	if _, ok := inner.(costModeler); !ok {
		return nil, fmt.Errorf("container: backend %q does not expose a cost model and noise streams", inner.Kind())
	}
	return &Backend{inner: inner}, nil
}

// Kind implements tee.Backend: containers keep the host platform's
// kind so gateway pools and monitors treat them consistently.
func (b *Backend) Kind() tee.Kind { return b.inner.Kind() }

// Name implements tee.Backend.
func (b *Backend) Name() string {
	return fmt.Sprintf("confidential containers on %s", b.inner.Name())
}

// HostProfile implements tee.Backend.
func (b *Backend) HostProfile() cpumodel.Profile { return b.inner.HostProfile() }

// Inner returns the wrapped backend.
func (b *Backend) Inner() tee.Backend { return b.inner }

// composeModel layers the container stack's costs on top of cm.
func (b *Backend) composeModel(cm tee.CostModel) tee.CostModel {
	cm.CPUFactor *= cpuFactor
	cm.MemFactor *= memFactor
	cm.IOReadFactor *= ioFactor
	cm.IOWriteFactor *= ioFactor
	cm.NetFactor *= ioFactor
	cm.FileOpFactor *= ioFactor
	cm.LogFactor *= syscallFactor
	cm.SyscallFactor *= syscallFactor
	cm.SpawnFactor *= 1.5 // pod plumbing around every process
	cm.StartupNs += extraStartupNs
	return cm
}

// CostModel prices a confidential container: the container stack on
// top of the inner TEE's charges.
func (b *Backend) CostModel() tee.CostModel {
	return b.composeModel(b.inner.(costModeler).CostModel())
}

// NormalCostModel prices a plain (non-confidential) container: the
// container stack without the TEE charges.
func (b *Backend) NormalCostModel() tee.CostModel {
	return b.composeModel(tee.NormalCostModel())
}

// Launch implements tee.Backend: a confidential container inside a
// pod VM launched on the inner TEE. The pod VM is real — lifecycle
// and attestation flow through it — while pricing uses the composed
// model.
func (b *Backend) Launch(cfg tee.GuestConfig) (tee.Guest, error) {
	cfg = cfg.WithDefaults()
	pod, err := b.inner.Launch(cfg)
	if err != nil {
		return nil, fmt.Errorf("container: launch pod VM: %w", err)
	}
	return tee.NewModelGuest(tee.ModelGuestConfig{
		IDPrefix: "cc",
		Kind:     b.Kind(),
		Secure:   true,
		Model:    b.CostModel(),
		BootBase: pod.BootCost(),
		Stream:   tee.NoiseStream(int64(b.inner.(costModeler).NoiseStream(true)), "container", true),
		Report:   pod.AttestationReport,
		Destroy:  pod.Destroy,
	}), nil
}

// LaunchNormal implements tee.Backend: a plain container on the host.
func (b *Backend) LaunchNormal(cfg tee.GuestConfig) (tee.Guest, error) {
	cfg = cfg.WithDefaults()
	vm, err := b.inner.LaunchNormal(cfg)
	if err != nil {
		return nil, fmt.Errorf("container: launch plain container host VM: %w", err)
	}
	return tee.NewModelGuest(tee.ModelGuestConfig{
		IDPrefix: "ct",
		Kind:     tee.KindNone,
		Secure:   false,
		Model:    b.NormalCostModel(),
		BootBase: vm.BootCost(),
		Stream:   tee.NoiseStream(int64(b.inner.(costModeler).NoiseStream(false)), "container", false),
		Destroy:  vm.Destroy,
	}), nil
}
