package bench

import (
	"context"
	"fmt"

	"confbench/internal/faas"
	"confbench/internal/faas/langs"
	"confbench/internal/stats"
	"confbench/internal/tee"
	"confbench/internal/vm"
	"confbench/internal/workloads"
)

// CoLocation implements the paper's first future-work item (§VI):
// "study the overheads of co-locating and executing several TEE-aware
// VMs inside the same host, as it happens in a typical cloud-based
// multi-tenant scenario".
//
// The experiment launches k confidential guests on one backend and
// prices the same function in all of them. Because the cost model
// prices each guest in isolation, host-level contention is modeled
// explicitly: co-residents compete for last-level cache and memory
// bandwidth, inflating each tenant's memory-bound time by
// contentionPerTenant per additional co-resident (a linear
// interference model).
type CoLocationOptions struct {
	// Tenants is the maximum co-located confidential VM count.
	Tenants int
	// Trials per tenant count.
	Trials int
}

// The probe every tenant runs, and its per-co-resident slowdown on the
// probe's execution time: a knob, not a claim.
const (
	probeWorkload       = "cpustress"
	probeLanguage       = langs.LangGo
	contentionPerTenant = 0.12
)

// CoLocationPoint is the mean execution time with k tenants.
type CoLocationPoint struct {
	Tenants int     `json:"tenants"`
	MeanMs  float64 `json:"mean_ms"`
	// VsSingle is MeanMs normalized to the single-tenant point.
	VsSingle float64 `json:"vs_single"`
}

// CoLocationResult is the multi-tenant sweep for one platform.
type CoLocationResult struct {
	Kind   tee.Kind          `json:"tee"`
	Points []CoLocationPoint `json:"points"`
}

// CoLocation runs the sweep on the given backend. The probe executes
// once, on the first tenant, and is priced on every tenant VM under
// (function, tenants, tenant, trial).
func CoLocation(ctx context.Context, backend tee.Backend, catalog *workloads.Registry, opts CoLocationOptions) (CoLocationResult, error) {
	if opts.Tenants <= 0 {
		opts.Tenants = 4
	}
	if opts.Trials <= 0 {
		opts.Trials = 3
	}
	if catalog == nil {
		catalog = workloads.Default()
	}
	fn := faas.Function{Name: probeWorkload + "-" + probeLanguage, Language: probeLanguage, Workload: probeWorkload}

	res := CoLocationResult{Kind: backend.Kind()}
	var (
		probe  faas.LaunchResult
		single float64
	)
	for k := 1; k <= opts.Tenants; k++ {
		// Launch k co-resident confidential guests.
		vms := make([]*vm.VM, 0, k)
		for t := 0; t < k; t++ {
			guest, err := backend.Launch(tee.GuestConfig{
				Name:     fmt.Sprintf("tenant-%d-of-%d", t, k),
				MemoryMB: 64,
			})
			if err != nil {
				return CoLocationResult{}, fmt.Errorf("bench colocation launch: %w", err)
			}
			machine, err := vm.New(vm.Config{Guest: guest, Host: backend.HostProfile(), Catalog: catalog})
			if err != nil {
				_ = guest.Destroy()
				return CoLocationResult{}, err
			}
			vms = append(vms, machine)
		}
		if k == 1 {
			var err error
			if probe, err = vms[0].Execute(ctx, fn, 0); err != nil {
				stopAll(vms)
				return CoLocationResult{}, err
			}
		}

		contention := 1 + contentionPerTenant*float64(k-1)
		var samples []float64
		for trial := 0; trial < opts.Trials; trial++ {
			for t, machine := range vms {
				r := machine.Price(ctx, probe, tee.NewKey(fn.Name).Num(uint64(k)).Num(uint64(t)).Num(uint64(trial)))
				samples = append(samples, float64(r.Wall.Nanoseconds())/1e6*contention)
			}
		}
		stopAll(vms)

		mean := stats.Mean(samples)
		if k == 1 {
			single = mean
		}
		res.Points = append(res.Points, CoLocationPoint{
			Tenants:  k,
			MeanMs:   mean,
			VsSingle: stats.Ratio(mean, single),
		})
	}
	return res, nil
}

func stopAll(vms []*vm.VM) {
	for _, m := range vms {
		_ = m.Stop()
	}
}
