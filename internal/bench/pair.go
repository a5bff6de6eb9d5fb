package bench

import (
	"context"
	"time"

	"confbench/internal/faas"
	"confbench/internal/stats"
	"confbench/internal/vm"
)

// Paired is what every figure is computed from: sample i of Secure and
// of Normal is one execution of a body, priced on the secure and on the
// normal VM of the pair.
type Paired struct {
	Secure, Normal []time.Duration
}

// Ms returns the samples in float milliseconds, the unit results report.
func (p Paired) Ms() (secure, normal []float64) {
	return stats.DurationsToMillis(p.Secure), stats.DurationsToMillis(p.Normal)
}

// pricePaired charges each execution on both VMs of the pair, on the
// calling goroutine and in index order, so what the per-guest pricing
// noise is drawn for depends on the indices alone — not on which worker
// ran a body, or when.
func pricePaired(ctx context.Context, pair vm.Pair, runs []faas.LaunchResult) Paired {
	p := Paired{Secure: make([]time.Duration, len(runs)), Normal: make([]time.Duration, len(runs))}
	for i, lr := range runs {
		s, n := pair.Price(ctx, lr)
		p.Secure[i], p.Normal[i] = s.Wall, n.Wall
	}
	return p
}

// measure is the paired measurement behind every figure: n bodies
// execute once each over the runner (concurrently when Workers > 1),
// then pricePaired charges what they metered. Bodies are pure, so the
// samples are the same for every worker count.
func measure(ctx context.Context, r Runner, pair vm.Pair, n int, body func(ctx context.Context, i int) (faas.LaunchResult, error)) (Paired, error) {
	runs := make([]faas.LaunchResult, n)
	err := r.Run(ctx, n, func(ctx context.Context, i int) error {
		var err error
		runs[i], err = body(ctx, i)
		return err
	})
	if err != nil {
		return Paired{}, err
	}
	return pricePaired(ctx, pair, runs), nil
}
