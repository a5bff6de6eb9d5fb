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
// of Normal is one pricing of a body's execution, on the secure and on
// the normal VM of the pair, under one key.
type Paired struct {
	Secure, Normal []time.Duration
}

// Ms returns the samples in float milliseconds, the unit results report.
func (p Paired) Ms() (secure, normal []float64) {
	return stats.DurationsToMillis(p.Secure), stats.DurationsToMillis(p.Normal)
}

// measure is the paired measurement behind every figure: n bodies
// execute over the runner (concurrently when Workers > 1), each once,
// and body i is priced on both VMs under key(i, j) for j in [0, k),
// into sample i*k+j. Bodies are pure, so k pricings of one execution
// are k trials; the samples are the same for every worker count and
// schedule.
func measure(ctx context.Context, r Runner, pair vm.Pair, n, k int, body func(ctx context.Context, i int) (faas.LaunchResult, error), key func(i, j int) tee.Key) (Paired, error) {
	p := Paired{Secure: make([]time.Duration, n*k), Normal: make([]time.Duration, n*k)}
	err := r.Run(ctx, n, func(ctx context.Context, i int) error {
		lr, err := body(ctx, i)
		if err == nil {
			p.price(ctx, pair, lr, i, k, key)
		}
		return err
	})
	if err != nil {
		return Paired{}, err
	}
	return p, nil
}

// price prices body i's execution on both VMs under key(i, j), into
// sample i*k+j, for j in [0, k).
func (p Paired) price(ctx context.Context, pair vm.Pair, lr faas.LaunchResult, i, k int, key func(i, j int) tee.Key) {
	for j := 0; j < k; j++ {
		s, n := pair.Price(ctx, lr, key(i, j))
		p.Secure[i*k+j], p.Normal[i*k+j] = s.Wall, n.Wall
	}
}

// priceRuns prices executions that already ran, one sample each: run i
// under (row, i).
func priceRuns(ctx context.Context, pair vm.Pair, row string, runs []faas.LaunchResult) Paired {
	p := Paired{Secure: make([]time.Duration, len(runs)), Normal: make([]time.Duration, len(runs))}
	for i, lr := range runs {
		p.price(ctx, pair, lr, i, 1, func(i, _ int) tee.Key { return tee.NewKey(row).Num(uint64(i)) })
	}
	return p
}
