package bench

import (
	"context"
	"strconv"
	"sync"
	"time"

	"confbench/internal/cberr"
	"confbench/internal/obs"
)

// Runner executes a fixed-size batch of indexed tasks over a bounded
// worker pool. It is the scheduling core of the experiment harness:
// the bodies of a paired measurement (see measure) go through it.
//
// Determinism contract: results are bit-identical for every worker
// count. Tasks execute pure bodies, price them under keys of what they
// measured, and write into per-index slots; nothing they draw on
// depends on which task ran first.
//
// Error contract: every started task runs to completion, and the
// reported error is the one raised by the lowest task index, so error
// reporting does not depend on goroutine scheduling. After the first
// failure remaining unstarted tasks are skipped.
type Runner struct {
	// Workers bounds the number of concurrently running tasks.
	// Values <= 1 run them in index order on the calling goroutine.
	Workers int
	// Obs is the metrics registry the per-worker task counters and
	// timing histograms and the queue-depth gauge report to (nil = the
	// process-wide default). Metrics never influence scheduling, so the
	// determinism contract above is unaffected.
	Obs *obs.Registry
}

// workerMetrics resolves one worker's task counter and timing
// histogram. The serial path is worker 0.
func workerMetrics(reg *obs.Registry, w int) (*obs.Counter, *obs.Histogram) {
	id := strconv.Itoa(w)
	return reg.Counter("confbench_bench_tasks_total", "worker", id),
		reg.Histogram("confbench_bench_task_seconds", "worker", id)
}

// Run executes task(ctx, i) for i in [0, n). See the type comment for
// the determinism and error contracts. A canceled ctx stops scheduling
// and surfaces cberr.ErrCanceled.
func (r Runner) Run(ctx context.Context, n int, task func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := r.Workers
	reg := obs.OrDefault(r.Obs)
	depth := reg.Gauge("confbench_bench_queue_depth")
	depth.Set(int64(n))
	defer depth.Set(0)
	// timed wraps one task execution so the timing sample and the task
	// counter flush on EVERY exit path — error returns, mid-batch
	// cancellation, even a panicking task. Without the defer a task
	// that unwinds abnormally drops its final partial sample and the
	// histogram count diverges from the number of started tasks.
	timed := func(tasks *obs.Counter, seconds *obs.Histogram, i int) error {
		start := time.Now()
		defer func() {
			seconds.Observe(time.Since(start))
			tasks.Inc()
		}()
		return task(ctx, i)
	}
	if workers <= 1 {
		tasks, seconds := workerMetrics(reg, 0)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return cberr.From(err, cberr.LayerBench)
			}
			err := timed(tasks, seconds, i)
			depth.Set(int64(n - i - 1))
			if err != nil {
				return cberr.From(err, cberr.LayerBench)
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int
		failed   = n // lowest failed index, n = none
		taskErrs = make([]error, n)
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		// Indices past the lowest failure are skipped; lower ones still
		// run so the winning (lowest-index) error is deterministic.
		if next >= n || next > failed {
			return 0, false
		}
		i := next
		next++
		depth.Set(int64(n - next))
		return i, true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tasks, seconds := workerMetrics(reg, w)
			for {
				if ctx.Err() != nil {
					return
				}
				i, ok := claim()
				if !ok {
					return
				}
				err := timed(tasks, seconds, i)
				if err != nil {
					mu.Lock()
					taskErrs[i] = err
					if i < failed {
						failed = i
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return cberr.From(err, cberr.LayerBench)
	}
	for _, err := range taskErrs {
		if err != nil {
			return cberr.From(err, cberr.LayerBench)
		}
	}
	return nil
}
