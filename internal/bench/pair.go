package bench

import (
	"context"
	"time"

	"confbench/internal/faas"
	"confbench/internal/stats"
	"confbench/internal/tee"
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

// measure is the paired measurement behind every figure: n bodies
// execute over the runner (concurrently when Workers > 1), each priced
// on both VMs under the key it returns, so the samples are the same for
// every worker count and schedule.
func measure(ctx context.Context, r Runner, pair vm.Pair, n int, body func(ctx context.Context, i int) (faas.LaunchResult, tee.Key, error)) (Paired, error) {
	p := Paired{Secure: make([]time.Duration, n), Normal: make([]time.Duration, n)}
	err := r.Run(ctx, n, func(ctx context.Context, i int) error {
		lr, key, err := body(ctx, i)
		if err != nil {
			return err
		}
		s, nr := pair.Price(ctx, lr, key)
		p.Secure[i], p.Normal[i] = s.Wall, nr.Wall
		return nil
	})
	if err != nil {
		return Paired{}, err
	}
	return p, nil
}

// priceRuns prices executions that already ran, sample i under (row, i).
func priceRuns(ctx context.Context, pair vm.Pair, row string, runs []faas.LaunchResult) Paired {
	p := Paired{Secure: make([]time.Duration, len(runs)), Normal: make([]time.Duration, len(runs))}
	for i, lr := range runs {
		s, n := pair.Price(ctx, lr, tee.NewKey(row).Num(uint64(i)))
		p.Secure[i], p.Normal[i] = s.Wall, n.Wall
	}
	return p
}
